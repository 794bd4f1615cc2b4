package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"powerfits/internal/archive"
	"powerfits/internal/experiments"
	"powerfits/internal/metrics"
)

// diffOpts carries the diff command's flags.
type diffOpts struct {
	Base, New string // run IDs or file paths
	Dir       string // run-store directory
	Tol       float64
	TolFor    string // "prefix=tol,prefix=tol" overrides
	Live      bool   // run a fresh suite as the new side
	JSON      bool
	Jobs      int
	Top       int
}

// parseTolFor parses "-tol-for fig10=0.05,kernel=0.01" into the
// per-key-prefix tolerance map.
func parseTolFor(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		prefix, tolStr, ok := strings.Cut(pair, "=")
		if !ok || prefix == "" {
			return nil, fmt.Errorf("bad -tol-for entry %q (want prefix=tolerance)", pair)
		}
		tol, err := strconv.ParseFloat(tolStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -tol-for tolerance in %q: %v", pair, err)
		}
		out[prefix] = tol
	}
	return out, nil
}

// cmdDiff compares two archived runs (or an archive against a live
// suite) and reports whether the gate passed. The caller turns a false
// return into a nonzero exit — the CI contract.
func cmdDiff(o diffOpts) bool {
	if o.Base == "" {
		fatal(fmt.Errorf("diff requires -base <run-id|record.json>"))
	}
	st := archive.NewStore(o.Dir)
	base, err := st.Resolve(o.Base)
	if err != nil {
		fatal(err)
	}

	var rec *archive.Record
	switch {
	case o.Live:
		log.Info("running live suite for the new side", "scale", base.Scale)
		suite, serr := experiments.RunSuite(experiments.Options{
			Scale: base.Scale, Workers: o.Jobs, Log: log})
		if serr != nil {
			fatal(serr)
		}
		man := metrics.NewManifest("powerfits")
		rec = archive.FromSuite(man, suite, base.Scale)
		man.Finish()
	case o.New != "":
		rec, err = st.Resolve(o.New)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("diff requires -new <run-id|record.json> or -live"))
	}

	perKey, err := parseTolFor(o.TolFor)
	if err != nil {
		fatal(err)
	}
	d, err := archive.Compare(base, rec, archive.DiffOptions{RelTol: o.Tol, PerKey: perKey})
	if err != nil {
		fatal(err)
	}
	if o.JSON {
		blob, merr := json.MarshalIndent(d, "", "  ")
		if merr != nil {
			fatal(merr)
		}
		os.Stdout.Write(append(blob, '\n'))
	} else {
		d.Render(os.Stdout, o.Top)
	}
	return d.OK()
}

// cmdArchive lists the run store. Runs are filed by `fitsbench
// -archive DIR` and `powerfits run -archive DIR`.
func cmdArchive(dir string) {
	st := archive.NewStore(dir)
	recs, err := st.List()
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fmt.Printf("no runs in %s\n", st.Dir)
		return
	}
	fmt.Printf("%-18s %6s %-21s %8s %8s  %s\n",
		"run_id", "scale", "started", "figures", "kernels", "config")
	for _, r := range recs {
		started, cfg := "-", r.ConfigHash
		if r.Manifest != nil && r.Manifest.StartedAt != "" {
			started = r.Manifest.StartedAt
		}
		if len(cfg) > 12 {
			cfg = cfg[:12]
		}
		fmt.Printf("%-18s %6d %-21s %8d %8d  %s\n",
			r.RunID, r.Scale, started, len(r.Figures), len(r.Kernels), cfg)
	}
}
