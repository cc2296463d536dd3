package exp

import (
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/parallel"
	"svtsim/internal/ports"
)

// This file is the cross-ISA comparison harness: the same nested netperf
// TCP_RR workload run under every requested architecture port and every
// system variant, so the paper's Figure-6-style question — how much does
// SVt buy back — can be answered per architecture from one invocation.

// PortCell is one port x mode measurement.
type PortCell struct {
	Port    string
	Mode    hv.Mode
	MeanUs  float64
	P50Us   float64
	P99Us   float64
	Exits   uint64                   // nested exits L0 handled
	ByClass [ports.NumClasses]uint64 // exits bucketed by the port's taxonomy
	Speedup float64                  // per-op vs the same port's baseline
}

// PortComparison is the full cross-ISA grid: one row per port, cells in
// hv.AllModes order.
type PortComparison struct {
	Rows [][]PortCell
}

// withPort derives a session that shares this session's configuration
// (faults, observability, pool width, topology) but runs on the
// given architecture port. The derived session is independent: runs on
// it never publish observability planes or settings back to the parent.
func (s *Session) withPort(p ports.Port) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Session{
		faults:  s.faults,
		obsOpts: s.obsOpts,
		workers: s.workers,
		topo:    s.topo,
		port:    p,
	}
}

// ComparePorts runs the nested TCP_RR latency workload (n transactions)
// for every named port across all four system variants and returns the
// comparison grid. Port names resolve through the ports registry; an
// empty list means every registered port.
func (s *Session) ComparePorts(portNames []string, n int) (*PortComparison, error) {
	if len(portNames) == 0 {
		portNames = ports.Names()
	}
	resolved := make([]ports.Port, len(portNames))
	for i, name := range portNames {
		p, err := ports.Parse(name)
		if err != nil {
			return nil, err
		}
		resolved[i] = p
	}
	modes := hv.AllModes()
	cells := parallel.MapN(s.Parallelism(), len(resolved)*len(modes), func(i int) PortCell {
		p := resolved[i/len(modes)]
		mode := modes[i%len(modes)]
		res := s.withPort(p).NetLatency(mode, n)
		c := PortCell{
			Port:   p.Name(),
			Mode:   mode,
			MeanUs: res.MeanUs,
			P50Us:  res.P50Us,
			P99Us:  res.P99Us,
		}
		for r := isa.ExitReason(0); r < isa.NumExitReasons; r++ {
			if cnt := res.ExitStats.Count[r]; cnt > 0 {
				c.Exits += cnt
				c.ByClass[p.Classify(r)] += cnt
			}
		}
		return c
	})
	cmp := &PortComparison{}
	for pi := range resolved {
		row := cells[pi*len(modes) : (pi+1)*len(modes)]
		base := row[0].MeanUs
		for mi := range row {
			if row[mi].MeanUs > 0 {
				row[mi].Speedup = base / row[mi].MeanUs
			}
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	return cmp, nil
}
