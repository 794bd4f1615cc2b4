package serve

import (
	"fmt"
	"log/slog"
	"strings"

	"powerfits/internal/asm"
	"powerfits/internal/kernels"
	"powerfits/internal/metrics"
	"powerfits/internal/profile"
	"powerfits/internal/sim"
	"powerfits/internal/synth"
)

// Request is one synthesis job as posted to /synth: a program (a named
// built-in kernel or assembly source), the configurations to time it
// on, and the synthesis/sampling knobs. The zero values of every
// optional field select the defaults the paper experiments use, so
// `{"kernel":"crc32"}` is a complete request.
type Request struct {
	// Kernel names a built-in benchmark. Mutually exclusive with Asm.
	Kernel string `json:"kernel,omitempty"`
	// Asm is assembly source (the syntax powerfits.ParseAsm accepts)
	// for a user-supplied program. Mutually exclusive with Kernel.
	Asm string `json:"asm,omitempty"`
	// Name labels an Asm program (default "user"); ignored for Kernel
	// requests.
	Name string `json:"name,omitempty"`
	// Scale is the workload scale; ≤ 0 selects the kernel's default (1
	// for Asm programs).
	Scale int `json:"scale,omitempty"`
	// Configs lists the processor configurations to simulate (ARM16,
	// ARM8, FITS16, FITS8); empty selects all four.
	Configs []string `json:"configs,omitempty"`
	// Sampled uses the sampled timing estimator (≤2 % validated error)
	// instead of the exact full pipeline.
	Sampled bool `json:"sampled,omitempty"`
	// Synth adjusts instruction-set synthesis.
	Synth SynthKnobs `json:"synth,omitzero"`
}

// SynthKnobs is the request's face of synth.Options (Trace is a local
// observer and has no place on the wire).
type SynthKnobs struct {
	ForceK          int   `json:"force_k,omitempty"`
	DictCap         int   `json:"dict_cap,omitempty"`
	NoDict          bool  `json:"no_dict,omitempty"`
	NoWindowRanking bool  `json:"no_window_ranking,omitempty"`
	NoTwoOp         bool  `json:"no_two_op,omitempty"`
	NoBasePoints    bool  `json:"no_base_points,omitempty"`
	ProfileBudget   int64 `json:"profile_budget,omitempty"`
}

// options lowers the knobs onto synth.Options, resolving the zero
// DictCap to the paper default so an empty knob set is identical to
// synth.DefaultOptions() — the canonicalization that makes
// `{"kernel":"crc32"}` and an explicit dict_cap=256 one cache entry.
func (k SynthKnobs) options() synth.Options {
	o := synth.Options{
		ForceK:          k.ForceK,
		DictCap:         k.DictCap,
		NoDict:          k.NoDict,
		NoWindowRanking: k.NoWindowRanking,
		NoTwoOp:         k.NoTwoOp,
		NoBasePoints:    k.NoBasePoints,
		ProfileBudget:   k.ProfileBudget,
	}
	if o.DictCap <= 0 {
		o.DictCap = synth.DefaultOptions().DictCap
	}
	return o
}

// Canonical is a validated, normalized request plus its derived
// identities. Key is the config hash every cache layer shares; RunID
// is the archive identity it files under; SetupKey identifies just the
// prepared image (program × scale × synthesis options), which is what
// concurrent requests batch on — two requests differing only in
// Configs or Sampled share one preparation.
type Canonical struct {
	Req      Request // normalized echo (resolved scale, configs, knobs)
	Opts     synth.Options
	Configs  []sim.Config
	Key      string
	RunID    string
	SetupKey string
}

// Canonicalize validates a request and derives its identities. cal is
// the serialized power calibration (part of the identity: recalibrated
// daemons must not serve stale cached energies). Errors are
// client-side (HTTP 400): unknown kernels, unknown configurations,
// contradictory fields. Assembly source is deliberately NOT parsed
// here — its identity is its bytes, and the hit path must not pay a
// parse; a malformed program fails at compute time instead.
func Canonicalize(req Request, cal []byte) (*Canonical, error) {
	c := &Canonical{Req: req}

	switch {
	case req.Kernel != "" && req.Asm != "":
		return nil, fmt.Errorf("request has both kernel %q and asm source; pick one", req.Kernel)
	case req.Kernel == "" && req.Asm == "":
		return nil, fmt.Errorf("request names no program: set kernel or asm")
	case req.Kernel != "":
		k, err := kernels.Get(req.Kernel)
		if err != nil {
			return nil, err
		}
		c.Req.Name = ""
		if c.Req.Scale <= 0 {
			c.Req.Scale = k.DefaultScale
		}
	default:
		if c.Req.Name == "" {
			c.Req.Name = "user"
		}
		if c.Req.Scale <= 0 {
			c.Req.Scale = 1
		}
	}

	// Normalize the configuration list: resolve names, dedupe, and
	// order canonically (sim.Configs order) so permuted requests are
	// one cache entry.
	want := make(map[string]bool, len(req.Configs))
	for _, name := range req.Configs {
		found := false
		for _, cfg := range sim.Configs {
			if strings.EqualFold(name, cfg.Name) {
				want[cfg.Name] = true
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown config %q (have ARM16, ARM8, FITS16, FITS8)", name)
		}
	}
	c.Req.Configs = c.Req.Configs[:0]
	for _, cfg := range sim.Configs {
		if len(want) == 0 || want[cfg.Name] {
			c.Configs = append(c.Configs, cfg)
			c.Req.Configs = append(c.Req.Configs, cfg.Name)
		}
	}

	c.Opts = c.Req.Synth.options()
	if c.Opts.ProfileBudget < 0 {
		return nil, fmt.Errorf("profile_budget must be ≥ 0")
	}
	c.Req.Synth = SynthKnobs{
		ForceK:          c.Opts.ForceK,
		DictCap:         c.Opts.DictCap,
		NoDict:          c.Opts.NoDict,
		NoWindowRanking: c.Opts.NoWindowRanking,
		NoTwoOp:         c.Opts.NoTwoOp,
		NoBasePoints:    c.Opts.NoBasePoints,
		ProfileBudget:   c.Opts.ProfileBudget,
	}

	// The image identity: program source × scale × synthesis options.
	// Configs and Sampled are excluded on purpose — they only select
	// timing runs over the shared prepared image.
	c.SetupKey = metrics.HashConfig(
		[]byte("powerfits-serve-setup/v1/"),
		[]byte(fmt.Sprintf("kernel=%s/name=%s/scale=%d/", c.Req.Kernel, c.Req.Name, c.Req.Scale)),
		[]byte(c.Req.Asm),
		[]byte(c.Opts.Key()),
	)
	// The full request identity adds the run selection and the power
	// calibration; sampled-vs-exact land on distinct keys, so an
	// estimated response can never be served where an exact one was
	// asked for (the run-ID namespacing PR 6 introduced for archives).
	c.Key = metrics.HashConfig(
		[]byte("powerfits-serve/v1/"),
		[]byte(c.SetupKey),
		[]byte(fmt.Sprintf("configs=%s/sampled=%t/", strings.Join(c.Req.Configs, ","), c.Req.Sampled)),
		cal,
	)
	c.RunID = serveRunID(c)
	return c, nil
}

// kernel resolves the canonical request to a runnable kernel, parsing
// assembly source for user programs. Parse errors surface here — the
// compute path — so the cache-probe path never pays them.
func (c *Canonical) kernel() (kernels.Kernel, error) {
	if c.Req.Kernel != "" {
		return kernels.Get(c.Req.Kernel)
	}
	p, err := asm.Parse(c.Req.Name, c.Req.Asm)
	if err != nil {
		return kernels.Kernel{}, err
	}
	return kernels.FromProgram(p), nil
}

// Prepare runs the design flow (profile → synthesize → translate →
// predecode) for the canonical request. profiles, when non-nil,
// memoizes the profiling stage across requests sharing an image.
func (c *Canonical) Prepare(profiles *profile.Cache, log *slog.Logger) (*sim.Setup, error) {
	k, err := c.kernel()
	if err != nil {
		return nil, err
	}
	return sim.PrepareWith(k, c.Req.Scale, sim.PrepareOptions{
		Synth:    c.Opts,
		Profiles: profiles,
		Log:      log,
	})
}
