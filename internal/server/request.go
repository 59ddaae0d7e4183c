package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"fssim/internal/experiments"
	"fssim/internal/faults"
	"fssim/internal/machine"
	"fssim/internal/sample"
	"fssim/internal/transfer"
	"fssim/internal/workload"
)

// maxRequestBody bounds POST /v1/runs bodies; a run request is a handful of
// scalars, so anything larger is garbage (or abuse) and is rejected early.
const maxRequestBody = 1 << 16

// maxScale bounds request-supplied workload scaling so a single client
// cannot ask the server for an arbitrarily large simulation.
const maxScale = 4.0

// RunRequest is the JSON body of POST /v1/runs. Zero-valued optional fields
// take the server's defaults; the full request (after applying defaults)
// determines the run's cache key, so identical requests share one simulation
// and one byte-identical response body.
type RunRequest struct {
	Benchmark string `json:"benchmark"`
	// Mode is "full" (App+OS, default), "app" (App Only) or "accel"
	// (App+OS Pred).
	Mode string `json:"mode,omitempty"`
	// Strategy selects the re-learning policy for accel runs: "statistical"
	// (default), "best-match", "eager" or "delayed".
	Strategy string `json:"strategy,omitempty"`
	// L2 overrides the L2 capacity in bytes (0 = platform default).
	L2 int `json:"l2,omitempty"`
	// Scale multiplies workload sizes (0 = server default; capped at 4).
	Scale float64 `json:"scale,omitempty"`
	// Seed fixes the simulation's base seed (0 = server default).
	Seed int64 `json:"seed,omitempty"`
	// Faults names a fault plan injected into the run ("" = none).
	Faults string `json:"faults,omitempty"`
	// Sample attaches an application-interval stratified sampler: a preset
	// ("default", "fast", "precise") or a key=value spec ("" = no sampling).
	// The spec is canonicalized before keying, so any spelling of one policy
	// shares one simulation and one byte-identical response.
	Sample string `json:"sample,omitempty"`
	// Transfer warm-starts the run's PLT from a neighbor configuration:
	// "store" (nearest eligible donor in the server's warm store) or
	// "l2=<bytes>" (the sibling run at that L2 capacity). Accel mode only;
	// "" = cold start. An ineligible or missing donor is rejected and the run
	// proceeds cold — the response's transfer field reports what happened.
	Transfer string `json:"transfer,omitempty"`
	// DeadlineMS caps how long this request waits for its result, in
	// milliseconds (0 = server default; capped at the server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// DecodeRunRequest parses one JSON run request strictly: unknown fields and
// trailing garbage are errors, so malformed clients fail loudly instead of
// silently running a default simulation.
func DecodeRunRequest(r io.Reader) (RunRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBody))
	dec.DisallowUnknownFields()
	var q RunRequest
	if err := dec.Decode(&q); err != nil {
		return RunRequest{}, fmt.Errorf("invalid run request: %w", err)
	}
	if dec.More() {
		return RunRequest{}, fmt.Errorf("invalid run request: trailing data after JSON object")
	}
	return q, nil
}

// Validate rejects requests no simulation can serve. The returned error is
// client-facing (a 400 body), so it names the offending field.
func (q RunRequest) Validate() error {
	if strings.TrimSpace(q.Benchmark) == "" {
		return fmt.Errorf("benchmark is required (have %s)", strings.Join(workload.Names(), ", "))
	}
	if _, err := workload.Lookup(q.Benchmark); err != nil {
		return err
	}
	if q.L2 < 0 {
		return fmt.Errorf("l2 must be non-negative bytes, got %d", q.L2)
	}
	if q.Scale < 0 || q.Scale > maxScale {
		return fmt.Errorf("scale must be in (0, %g] (0 = server default), got %g", maxScale, q.Scale)
	}
	if q.Seed < 0 {
		return fmt.Errorf("seed must be non-negative, got %d", q.Seed)
	}
	if q.Faults != "" {
		if _, err := faults.Named(q.Faults); err != nil {
			return err
		}
	}
	// Mode, strategy, sampling spec and transfer directive are checked by
	// building the key.
	if _, err := q.Spec(1, 1); err != nil {
		return err
	}
	if q.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be non-negative, got %d", q.DeadlineMS)
	}
	return nil
}

// Spec maps a validated request onto its normalized scheduler key, applying
// the given defaults for unset scale and seed. Accelerated runs always arm
// the divergence watchdog so the breaker sees degradation signals. The
// backend and a routing tier both call it, so they compute the identical
// key (and therefore the identical ring placement and run id).
func (q RunRequest) Spec(defaultScale float64, defaultSeed int64) (experiments.RunKey, error) {
	mode, err := experiments.ParseMode(q.Mode)
	if err != nil {
		return experiments.RunKey{}, err
	}
	strat, err := experiments.ParseStrategy(q.Strategy)
	if err != nil {
		return experiments.RunKey{}, err
	}
	smp := ""
	if q.Sample != "" {
		if smp, err = sample.Canonical(q.Sample); err != nil {
			return experiments.RunKey{}, err
		}
	}
	xfer := ""
	if q.Transfer != "" {
		// Canonicalize through the parsed form so every spelling of one
		// directive shares a cache key.
		ts, err := transfer.ParseSpec(q.Transfer)
		if err != nil {
			return experiments.RunKey{}, err
		}
		if mode != machine.Accelerated {
			return experiments.RunKey{}, fmt.Errorf("transfer requires accel mode, got %q", q.Mode)
		}
		xfer = ts.String()
	}
	k := experiments.RunKey{
		Bench:    q.Benchmark,
		Mode:     mode,
		L2:       q.L2,
		Scale:    q.Scale,
		Seed:     q.Seed,
		Faults:   q.Faults,
		Sample:   smp,
		Transfer: xfer,
		Strategy: strat,
		Watchdog: mode == machine.Accelerated,
	}
	if k.Scale <= 0 {
		k.Scale = defaultScale
	}
	if k.Seed == 0 {
		k.Seed = defaultSeed
	}
	return k.Key(), nil
}

// deadline resolves the request's wait deadline against the server default,
// which is also the cap: clients may ask for less time, never more.
func (q RunRequest) deadline(def time.Duration) time.Duration {
	if q.DeadlineMS <= 0 {
		return def
	}
	d := time.Duration(q.DeadlineMS) * time.Millisecond
	if d > def {
		return def
	}
	return d
}

// RunResponse is the JSON body of a completed run. Every field is a pure
// function of the run's cache key (host wall-clock never appears), so
// identical requests produce byte-identical bodies — the property that makes
// responses shareable and cacheable.
type RunResponse struct {
	ID        string  `json:"id"`
	Key       string  `json:"key"`
	Benchmark string  `json:"benchmark"`
	Mode      string  `json:"mode"`
	Cycles    uint64  `json:"cycles"`
	Insts     uint64  `json:"instructions"`
	IPC       float64 `json:"ipc"`
	L2Misses  uint64  `json:"l2_misses"`
	// Coverage is the fraction of OS service invocations fast-forwarded
	// (accel runs only).
	Coverage float64 `json:"coverage,omitempty"`
	// Degraded reports that the divergence watchdog demoted at least one
	// service to detailed simulation during the run (accel runs only).
	Degraded bool `json:"degraded,omitempty"`
	// Sample summarizes the stratified-sampling estimator (sampled runs only).
	Sample *SampleInfo `json:"sample,omitempty"`
	// Transfer reports the provenance of imported PLT priors (present only
	// when the run's transfer directive resolved and imported a donor; a
	// rejected directive leaves it absent — the run was cold).
	Transfer *TransferInfo `json:"transfer,omitempty"`
}

// TransferInfo is the response view of an applied cross-config transfer: the
// donor the priors came from, its parameter distance, and the headline L2
// miss-scale factor applied during the import.
type TransferInfo struct {
	DonorBenchmark string  `json:"donor_benchmark"`
	DonorAddr      string  `json:"donor_addr"` // "familyhash/learnhash" hex
	Distance       float64 `json:"distance"`
	Scale          float64 `json:"scale"`
}

// SampleInfo is the response view of a sampled run's estimator report: the
// detailed/extrapolated split, the app-side reduction factor, and the 95%
// confidence half-width on total cycles — every field a pure function of the
// run's cache key.
type SampleInfo struct {
	Strata       int     `json:"strata"`
	Detailed     int64   `json:"detailed"`
	Extrapolated int64   `json:"extrapolated"`
	Reduction    float64 `json:"reduction"`
	CIRel        float64 `json:"ci_rel"` // CI half-width / total cycles
}

// RunID derives the deterministic public id of a cache key: identical
// requests — from any client, at any time — map to the same id. It is
// exported for the fleet router, which shards by it: because the id is a
// pure function of the normalized key, POST /v1/runs and the later
// GET /v1/runs/{id} land on the same ring node.
func RunID(key experiments.RunKey) string {
	h := fnv.New64a()
	io.WriteString(h, key.String())
	fmt.Fprintf(h, "|seed=%d", key.Seed)
	return fmt.Sprintf("r%016x", h.Sum64())
}
