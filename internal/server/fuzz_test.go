package server

import (
	"strings"
	"testing"
	"time"
)

// FuzzRunRequestDecode hammers the request decoder with arbitrary bytes: it
// must never panic, and any request it accepts must survive validation,
// spec-building, and key derivation without panicking either — the full
// untrusted path a malicious POST body can reach.
func FuzzRunRequestDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"benchmark":"ab-rand"}`,
		`{"benchmark":"ab-rand","mode":"accel","strategy":"eager","l2":1048576,"scale":0.5,"seed":7,"faults":"storm","deadline_ms":250}`,
		`{"benchmark":"srv-ok","mode":"full","scale":1e308}`,
		`{"benchmark":"","seed":-9223372036854775808}`,
		`{"benchmark":"ab-rand","scale":null}`,
		`{"benchmark":"ab-rand"} trailing`,
		`[1,2,3]`,
		`"just a string"`,
		`{"benchmark":"ab-rand","bogus":true}`,
		strings.Repeat(`{"benchmark":`, 100),
		`{"benchmark":"ab-rand","scale":NaN}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeRunRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		// Accepted requests must produce a stable key and a sane deadline.
		key, err := req.Spec(1.0, 1)
		if err != nil {
			return
		}
		if key.String() == "" {
			t.Fatalf("valid request produced empty key: %q", body)
		}
		key2, err := req.Spec(1.0, 1)
		if err != nil || key != key2 {
			t.Fatalf("key derivation not deterministic for %q (err %v)", body, err)
		}
		if d := req.deadline(2 * time.Minute); d <= 0 || d > 2*time.Minute {
			t.Fatalf("deadline %v out of range for %q", d, body)
		}
	})
}
