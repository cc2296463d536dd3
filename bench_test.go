// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment on the
// simulated testbed and reports the *virtual-time* metric the paper
// plots via b.ReportMetric (wall-clock ns/op measures only how fast the
// simulator itself runs).
//
//	go test -bench=. -benchmem
package svtsim

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// --- Table 1 / Figure 6: the cpuid micro-benchmark ----------------------

func BenchmarkTable1BaselineCPUIDBreakdown(b *testing.B) {
	s := NewSession()
	for i := 0; i < b.N; i++ {
		r := s.CPUIDNested(Baseline, 500)
		b.ReportMetric(r.PerOp.Microseconds(), "virt-us/cpuid")
	}
}

func benchCPUID(b *testing.B, run func() CPUIDResult) {
	for i := 0; i < b.N; i++ {
		r := run()
		b.ReportMetric(r.PerOp.Microseconds(), "virt-us/cpuid")
	}
}

func BenchmarkFigure6NativeL0(b *testing.B) {
	s := NewSession()
	benchCPUID(b, func() CPUIDResult { return s.CPUIDNative(500) })
}
func BenchmarkFigure6SingleLevelL1(b *testing.B) {
	s := NewSession()
	benchCPUID(b, func() CPUIDResult { return s.CPUIDSingleLevel(500) })
}
func BenchmarkFigure6NestedL2(b *testing.B) {
	s := NewSession()
	benchCPUID(b, func() CPUIDResult { return s.CPUIDNested(Baseline, 500) })
}
func BenchmarkFigure6SWSVt(b *testing.B) {
	s := NewSession()
	benchCPUID(b, func() CPUIDResult { return s.CPUIDNested(SWSVt, 500) })
}
func BenchmarkFigure6HWSVt(b *testing.B) {
	s := NewSession()
	benchCPUID(b, func() CPUIDResult { return s.CPUIDNested(HWSVt, 500) })
}

// --- Figure 7: I/O subsystems -------------------------------------------

func benchModes(b *testing.B, run func(Mode) (metric float64, unit string)) {
	for _, mode := range AllModes() {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, unit := run(mode)
				b.ReportMetric(m, unit)
			}
		})
	}
}

func BenchmarkFigure7NetLatency(b *testing.B) {
	s := NewSession()
	benchModes(b, func(m Mode) (float64, string) {
		return s.NetLatency(m, 50).MeanUs, "virt-us/rtt"
	})
}

func BenchmarkFigure7NetBandwidth(b *testing.B) {
	s := NewSession()
	benchModes(b, func(m Mode) (float64, string) {
		return s.NetBandwidth(m, 20*Millisecond).Mbps, "virt-Mbps"
	})
}

func BenchmarkFigure7DiskReadLatency(b *testing.B) {
	s := NewSession()
	benchModes(b, func(m Mode) (float64, string) {
		return s.DiskLatency(m, false, 50).MeanUs, "virt-us/op"
	})
}

func BenchmarkFigure7DiskWriteLatency(b *testing.B) {
	s := NewSession()
	benchModes(b, func(m Mode) (float64, string) {
		return s.DiskLatency(m, true, 50).MeanUs, "virt-us/op"
	})
}

func BenchmarkFigure7DiskReadBandwidth(b *testing.B) {
	s := NewSession()
	benchModes(b, func(m Mode) (float64, string) {
		return s.DiskBandwidth(m, false, 80).KBs, "virt-KB/s"
	})
}

func BenchmarkFigure7DiskWriteBandwidth(b *testing.B) {
	s := NewSession()
	benchModes(b, func(m Mode) (float64, string) {
		return s.DiskBandwidth(m, true, 80).KBs, "virt-KB/s"
	})
}

// --- Figure 8: memcached --------------------------------------------------

func BenchmarkFigure8Memcached(b *testing.B) {
	s := NewSession()
	for _, mode := range []Mode{Baseline, SWSVt} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := s.Memcached(mode, 12000, 100*Millisecond)
				b.ReportMetric(r.P99Us, "virt-p99-us")
				b.ReportMetric(r.AvgUs, "virt-avg-us")
			}
		})
	}
}

// --- Figure 9: TPC-C -------------------------------------------------------

func BenchmarkFigure9TPCC(b *testing.B) {
	s := NewSession()
	for _, mode := range []Mode{Baseline, SWSVt} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(s.TPCC(mode, 200*Millisecond), "virt-ktpm")
			}
		})
	}
}

// --- Figure 10: video playback --------------------------------------------

func BenchmarkFigure10Video(b *testing.B) {
	s := NewSession()
	for _, mode := range []Mode{Baseline, SWSVt} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := s.VideoN(mode, 120, 6000)
				b.ReportMetric(float64(r.Dropped), "virt-drops")
			}
		})
	}
}

// --- §6.1: channel study (simulated) ---------------------------------------

func BenchmarkChannelStudy(b *testing.B) {
	s := NewSession()
	for _, pol := range []WaitPolicy{PolicyPoll, PolicyMwait, PolicyMutex} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := s.ChannelStudy(100, []Time{0})
				for _, p := range pts {
					if p.Policy == pol && p.Placement == PlaceSMT {
						b.ReportMetric(p.PerOp.Microseconds(), "virt-us/cpuid")
					}
				}
			}
		})
	}
}

// --- §6.1 analogue on the host: real thread-handoff latency ----------------
//
// The paper compares polling, monitor/mwait and mutex wakeups between SMT
// siblings. Go cannot issue monitor/mwait, but the same design question —
// how expensive is a cross-thread ping-pong under each waiting discipline —
// can be measured directly on the host running this benchmark.

func BenchmarkHandoffChannel(b *testing.B) {
	req, resp := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-req:
				resp <- struct{}{}
			case <-done:
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req <- struct{}{}
		<-resp
	}
	b.StopTimer()
	close(done)
}

func BenchmarkHandoffMutexCond(b *testing.B) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	state := 0 // 0 idle, 1 request, 2 response, 3 stop
	go func() {
		mu.Lock()
		defer mu.Unlock()
		for {
			for state != 1 && state != 3 {
				cond.Wait()
			}
			if state == 3 {
				return
			}
			state = 2
			cond.Broadcast()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		state = 1
		cond.Broadcast()
		for state != 2 {
			cond.Wait()
		}
		state = 0
		mu.Unlock()
	}
	b.StopTimer()
	mu.Lock()
	state = 3
	cond.Broadcast()
	mu.Unlock()
}

func BenchmarkHandoffSpin(b *testing.B) {
	var flag atomic.Int64
	done := make(chan struct{})
	go func() {
		for {
			if flag.Load() == 1 {
				flag.Store(2)
			}
			if flag.Load() == 3 {
				close(done)
				return
			}
			runtime.Gosched()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flag.Store(1)
		for flag.Load() != 2 {
			runtime.Gosched()
		}
		flag.Store(0)
	}
	b.StopTimer()
	flag.Store(3)
	<-done
}

// --- Ablations (DESIGN.md §ablations) ---------------------------------------

// BenchmarkAblationBypass measures the paper's §3.1 future-work extension:
// delivering L1-owned exits straight to L1's context.
func BenchmarkAblationBypass(b *testing.B) {
	s := NewSession()
	benchCPUID(b, func() CPUIDResult { return s.CPUIDNested(HWSVtBypass, 500) })
}

// BenchmarkAblationNoShadowing quantifies hardware VMCS shadowing by
// turning it off (every guest-hypervisor field access traps).
func BenchmarkAblationNoShadowing(b *testing.B) {
	s := NewSession()
	for i := 0; i < b.N; i++ {
		r := s.CPUIDNestedNoShadowing(500)
		b.ReportMetric(r.PerOp.Microseconds(), "virt-us/cpuid")
	}
}

// BenchmarkAblationThunkRegs sweeps the number of registers the software
// context-switch thunk moves ("dozens of registers", §1).
func BenchmarkAblationThunkRegs(b *testing.B) {
	s := NewSession()
	for _, regs := range []int{8, 15, 30, 60} {
		b.Run(strconv.Itoa(regs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := s.CPUIDNestedWithThunkRegs(Baseline, regs, 300)
				b.ReportMetric(r.PerOp.Microseconds(), "virt-us/cpuid")
			}
		})
	}
}
