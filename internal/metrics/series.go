package metrics

// The phase-series export types. tracing.Sampler produces the windows
// from a run's event stream and tracing.Profiler the hotspot rows; this
// package only carries them to the JSON and CSV exports.

// WindowSample is one completed sample window of a phase series.
type WindowSample struct {
	// EndCycle is the cycle count at the window's close.
	EndCycle uint64 `json:"end_cycle"`
	// Cycles is the window length: near the nominal length, since a
	// window closes on the first event past a multiple of it; the final
	// window may be partial.
	Cycles     uint64  `json:"cycles"`
	Fetches    uint64  `json:"fetches"`
	Misses     uint64  `json:"misses"`
	SwitchPJ   float64 `json:"switch_pj"`
	InternalPJ float64 `json:"internal_pj"`
	LeakPJ     float64 `json:"leak_pj"`
	Instrs     uint64  `json:"instrs"`
}

// IPC returns the window's instructions per cycle.
func (w WindowSample) IPC() float64 {
	if w.Cycles == 0 {
		return 0
	}
	return float64(w.Instrs) / float64(w.Cycles)
}

// MissRate returns the window's misses per access.
func (w WindowSample) MissRate() float64 {
	if w.Fetches == 0 {
		return 0
	}
	return float64(w.Misses) / float64(w.Fetches)
}

// Hotspot is one row of the fetch-energy attribution map: a basic block
// labelled by its containing function, or the catch-all row (Label
// "(outside text)", zero range) for fetches outside every block.
type Hotspot struct {
	Label     string  `json:"label,omitempty"`
	StartAddr uint32  `json:"start_addr"`
	EndAddr   uint32  `json:"end_addr"`
	Fetches   uint64  `json:"fetches"`
	Misses    uint64  `json:"misses"`
	FetchPJ   float64 `json:"fetch_pj"`
}

// Series is the phase-resolved outcome of one observed run.
type Series struct {
	// WindowCycles is the nominal sample window length.
	WindowCycles int `json:"window_cycles"`
	// Samples are the completed windows in time order.
	Samples []WindowSample `json:"samples"`
	// Hotspots are the basic blocks that saw fetches, sorted by
	// descending fetch energy.
	Hotspots []Hotspot `json:"hotspots,omitempty"`
}

// TotalFetchPJ returns the fetch energy summed over every hotspot row
// (switching plus line fills for the whole run).
func (s *Series) TotalFetchPJ() float64 {
	var t float64
	for _, h := range s.Hotspots {
		t += h.FetchPJ
	}
	return t
}

// TopHotspots returns the n hottest rows (all of them when n ≤ 0 or
// exceeds the row count).
func (s *Series) TopHotspots(n int) []Hotspot {
	if n <= 0 || n > len(s.Hotspots) {
		n = len(s.Hotspots)
	}
	return s.Hotspots[:n]
}
