package farm

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/instr"
)

// Params are the per-request pipeline knobs one rewrite carries,
// decoded from the shared /rewrite query grammar. The worker (surid)
// and the fleet coordinator (surifleet) decode requests with the same
// function, so a forwarded request resolves to the same core.Options —
// and therefore the same content address — on both sides of the hop.
type Params struct {
	// Options is the decoded pipeline configuration. Obs is always nil
	// here; the serving layer injects its request-scoped collector.
	Options core.Options

	// Validate requests a differentially-validated rewrite (?validate=1).
	Validate bool

	// Trace requests the span tree in the response (?trace=1).
	Trace bool

	// Timeout is the effective request deadline: the server default,
	// tightened (never extended) by ?timeout=. Zero means none.
	Timeout time.Duration
}

// ParseQuery decodes the /rewrite query grammar over the server
// defaults. An unknown instrumentation pass comes back as a
// *core.StageError naming the instrument stage (the 422 family); every
// other failure is a plain client error (400). Unknown keys are
// ignored.
//
//	ignore-ehframe=1  allow-noncet=1  validate=1  trace=1
//	timeout=<duration>  budget-insts=<n>  budget-steps=<n>
//	instrument=<pass,pass,...>
func ParseQuery(q url.Values, budget harden.Budget, maxTimeout time.Duration) (Params, error) {
	p := Params{
		Options: core.Options{
			IgnoreEhFrame: q.Get("ignore-ehframe") == "1",
			AllowNonCET:   q.Get("allow-noncet") == "1",
			Budget:        budget,
		},
		Validate: q.Get("validate") == "1",
		Trace:    q.Get("trace") == "1",
		Timeout:  maxTimeout,
	}
	if v := q.Get("instrument"); v != "" {
		passes, err := instr.ParseList(v)
		if err != nil {
			// An unknown pass name is an instrument-stage failure from
			// the client's perspective: 422 with the stage attached.
			return Params{}, &core.StageError{Stage: "instrument", Err: err}
		}
		p.Options.Passes = passes
	}
	if v := q.Get("budget-insts"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return Params{}, fmt.Errorf("farm: bad budget-insts %q", v)
		}
		p.Options.Budget.TotalInsts = n
	}
	if v := q.Get("budget-steps"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return Params{}, fmt.Errorf("farm: bad budget-steps %q", v)
		}
		p.Options.Budget.EmuSteps = n
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return Params{}, fmt.Errorf("farm: bad timeout %q", v)
		}
		if p.Timeout <= 0 || d < p.Timeout {
			p.Timeout = d
		}
	}
	return p, nil
}
