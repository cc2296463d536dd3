package machine

import (
	"bytes"
	"testing"

	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/mem"
	"svtsim/internal/netsim"
	"svtsim/internal/sim"
)

// These tests verify *data integrity* through the entire nested I/O path:
// the bytes a nested guest writes travel through its virtqueues in
// composed-EPT-translated memory, the guest hypervisor's vhost backend,
// the guest hypervisor's own virtio device, the host backend, and the
// physical device model — and come back intact.

func TestNestedDiskDataIntegrity(t *testing.T) {
	for _, mode := range []hv.Mode{hv.ModeBaseline, hv.ModeSWSVt, hv.ModeHWSVt} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig(mode)
			io := WireNestedIO(&cfg, DefaultIOParams())
			m := NewNested(cfg)
			pattern := make([]byte, 4096)
			for i := range pattern {
				pattern[i] = byte(i*7 + 3)
			}
			var readBack []byte
			m.InstallL2(io, false, true, func(env *guest.Env) {
				if !env.Blk.Write(128, pattern) {
					t.Error("nested write failed")
					return
				}
				readBack = make([]byte, len(pattern))
				if !env.Blk.Read(128, readBack) {
					t.Error("nested read failed")
					return
				}
			})
			m.Run()
			if !bytes.Equal(readBack, pattern) {
				t.Fatal("data corrupted through the nested stack")
			}
			// The bytes must really be on the physical disk image (L2
			// sector 128 passes through the stack unchanged in our layout).
			onDisk, err := io.Disk.ReadSync(128, len(pattern))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, pattern) {
				t.Fatal("physical image does not hold the guest's bytes")
			}
		})
	}
}

func TestNestedNetworkDataIntegrity(t *testing.T) {
	for _, mode := range []hv.Mode{hv.ModeBaseline, hv.ModeSWSVt, hv.ModeHWSVt} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig(mode)
			io := WireNestedIO(&cfg, DefaultIOParams())
			m := NewNested(cfg)
			// RespSize <= 0: the peer echoes request bytes verbatim.
			io.NIC.Peer = &netsim.EchoPeer{
				Eng: m.Eng, Back: io.LinkIn, Dst: io.NIC,
				ServiceTime: 2 * sim.Microsecond,
			}
			msg := []byte("nested virtualization, end to end")
			var got []byte
			m.InstallL2(io, true, false, func(env *guest.Env) {
				done := false
				env.Net.OnReceive = func(pkt []byte) {
					got = pkt
					done = true
				}
				env.Net.Send(msg, nil)
				env.WaitFor(func() bool { return done })
			})
			m.Run()
			if !bytes.Equal(got, msg) {
				t.Fatalf("echo mismatch: got %q want %q", got, msg)
			}
		})
	}
}

func TestNestedExitMixForDiskIO(t *testing.T) {
	cfg := DefaultConfig(hv.ModeBaseline)
	io := WireNestedIO(&cfg, DefaultIOParams())
	m := NewNested(cfg)
	m.InstallL2(io, false, true, func(env *guest.Env) {
		for i := 0; i < 10; i++ {
			if !env.Blk.Read(uint64(i*8), make([]byte, 512)) {
				t.Error("read failed")
			}
		}
	})
	m.Run()
	p := &m.L0.NestedProf
	// Every nested disk op must show EPT_MISCONFIG (kick + intr-ack),
	// interrupt traffic, and x2APIC writes in the nested profile.
	for _, r := range []isa.ExitReason{isa.ExitEPTMisconfig, isa.ExitExternalInterrupt, isa.ExitAPICWrite} {
		if p.Count[r] == 0 {
			t.Errorf("no %v exits recorded", r)
		}
	}
}

// A 4 KB request whose L2 buffer straddles a page boundary, landing on
// a disk offset that straddles one too, round-trips its bytes: every
// copy between the disk, L1's buffer and L2's splits at page boundaries
// of both sides.
func TestBlkPageCrossingRoundTrip(t *testing.T) {
	const (
		sector = 129 // 512 B into a disk page
		tail   = 96  // bytes of the buffer before L2's page boundary
	)
	for _, mode := range hv.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig(mode)
			io := WireNestedIO(&cfg, DefaultIOParams())
			m := NewNested(cfg)
			pattern := make([]byte, 4096)
			for i := range pattern {
				pattern[i] = byte(i*13 + i>>8)
			}
			readBack := make([]byte, len(pattern))
			m.InstallL2(io, false, true, func(env *guest.Env) {
				// Bump the arena so a request's data buffer, allocated
				// after its 16-byte header, starts tail bytes before a
				// page boundary.
				a := env.Alloc(8) + 8
				want := (a+16+mem.PageSize-1)&^(mem.PageSize-1) - tail
				if want < a+16 {
					want += mem.PageSize
				}
				if pad := want - 16 - a; pad > 0 {
					env.Alloc(pad)
				}
				if !env.Blk.Write(sector, pattern) {
					t.Error("nested write failed")
					return
				}
				if !env.Blk.Read(sector, readBack) {
					t.Error("nested read failed")
					return
				}
				// The freed data buffer is the one both requests used.
				if got := env.Alloc(uint64(len(pattern))); got != want {
					t.Errorf("data buffer at %#x, want %#x", got, want)
				}
			})
			m.Run()
			if !bytes.Equal(readBack, pattern) {
				t.Fatal("page-crossing read returned different bytes")
			}
			onDisk, err := io.Disk.ReadSync(sector, len(pattern))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, pattern) {
				t.Fatal("page-crossing write left different bytes on the image")
			}
		})
	}
}
