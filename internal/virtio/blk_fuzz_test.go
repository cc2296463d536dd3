package virtio_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"svtsim/internal/blk"
	"svtsim/internal/ept"
	"svtsim/internal/mem"
	"svtsim/internal/sim"
	"svtsim/internal/virtio"
)

// FuzzBlkRequest posts well-formed request chains with a fuzzed type,
// sector, length, buffer offset and data pattern to a BlkBackend over a
// blk.Disk, and holds every completion against a shadow image: OK and
// the model's bytes when the access is in bounds, IOERR when it is not
// (sectors of 2^55 and up included), UNSUPP for a type the device does
// not implement. Both queue handles' invariants hold after every step.
//
// Each request is seven script bytes: type, sector class, two sector
// bytes, length, pattern and buffer offset.
func FuzzBlkRequest(f *testing.F) {
	f.Add([]byte{3, 0, 5, 0, 1, 0x11, 0, 0, 0, 5, 0, 1, 0, 0})
	f.Add([]byte{4, 1, 0, 0, 8, 0x22, 255, 1, 1, 0, 0, 8, 0, 200})
	f.Add([]byte{3, 2, 0, 0, 1, 0x33, 0, 0, 2, 0, 0, 1, 0, 0})
	f.Add([]byte{6, 0, 0, 0, 1, 0, 0, 7, 3, 0xff, 0xff, 2, 0, 9})
	f.Add([]byte{5, 1, 3, 0, 0, 0x44, 7, 0, 1, 3, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		const (
			capacity = 64 << 10
			sectors  = capacity / blk.SectorSize
			hdrGPA   = 0x4000
			stsGPA   = 0x4100
			dataBase = 0x8000
			sentinel = 0xc5
		)
		if len(script) > 7*32 {
			script = script[:7*32]
		}
		host := mem.New(1 << 20)
		tbl := ept.New("fuzz")
		if err := tbl.Map(0, 0, 1<<20, ept.PermRW); err != nil {
			t.Fatal(err)
		}
		m := ept.NewView(host, tbl)
		eng := sim.New()
		disk := blk.NewDisk(eng, "fuzz-disk", capacity)
		b := virtio.NewBlkBackend("fuzz-blk", 0xFE000000, m, disk)
		b.NotifyHost = b.OnIRQ
		l := virtio.NewLayout(0x1000, 8)
		q, err := virtio.NewQueue(l, m, true)
		if err != nil {
			t.Fatal(err)
		}
		virtio.ConfigureQueue(func(a, v uint64) { b.MMIOWrite(a, v) }, b.Base, 0, l)
		model := make([]byte, capacity)

		for ; len(script) >= 7; script = script[7:] {
			op := script[:7]
			var typ uint32
			switch op[0] % 8 {
			case 0, 1, 2:
				typ = virtio.BlkTIn
			case 3, 4, 5:
				typ = virtio.BlkTOut
			default:
				typ = 2 + uint32(op[0]) // flush, get-id and the rest
			}
			lo := uint64(binary.LittleEndian.Uint16(op[2:4]))
			var sector uint64
			switch op[1] % 4 {
			case 0:
				sector = lo % sectors
			case 1:
				sector = sectors - lo%4 // straddles or passes the end
			case 2:
				sector = 1<<55 + lo // wraps to lo*512 if scaled first
			default:
				sector = ^uint64(0) - lo
			}
			n := uint32(op[4]%9) * blk.SectorSize
			dataGPA := uint64(dataBase + int(op[6])*8)
			write := typ == virtio.BlkTOut

			data := bytes.Repeat([]byte{sentinel}, int(n))
			if write {
				for i := range data {
					data[i] = op[5] + byte(i*31)
				}
			}
			if err := m.Write(dataGPA, data); err != nil {
				t.Fatal(err)
			}
			hdr := virtio.EncodeBlkHeader(false, sector)
			binary.LittleEndian.PutUint32(hdr[0:4], typ)
			if err := m.Write(hdrGPA, hdr[:]); err != nil {
				t.Fatal(err)
			}
			if err := m.Write(stsGPA, []byte{0xff}); err != nil {
				t.Fatal(err)
			}
			chain := []virtio.Buf{
				{GPA: hdrGPA, Len: virtio.BlkHeaderSize},
				{GPA: dataGPA, Len: n, DeviceWrite: !write},
				{GPA: stsGPA, Len: 1, DeviceWrite: true},
			}
			if _, err := q.Post(chain); err != nil {
				t.Fatal(err)
			}
			b.MMIOWrite(b.Base+virtio.RegQueueNotify, 0)
			if !eng.Drain(100) {
				t.Fatal("disk events did not drain")
			}
			_, used, ok, err := q.PopUsed()
			if err != nil || !ok {
				t.Fatalf("type %d sector %#x n %d: no used entry (%v)", typ, sector, n, err)
			}

			inBounds := sector <= sectors && uint64(n) <= capacity-sector*blk.SectorSize
			wantSts, wantUsed := virtio.BlkSIOErr, uint32(1)
			switch {
			case typ != virtio.BlkTIn && typ != virtio.BlkTOut:
				wantSts = virtio.BlkSUnsupp
			case inBounds:
				wantSts = virtio.BlkSOK
				if !write {
					wantUsed += n
				}
			}
			var sts [1]byte
			if err := m.Read(stsGPA, sts[:]); err != nil {
				t.Fatal(err)
			}
			if sts[0] != wantSts || used != wantUsed {
				t.Fatalf("type %d sector %#x n %d: status %d used %d, want %d and %d",
					typ, sector, n, sts[0], used, wantSts, wantUsed)
			}

			got := make([]byte, n)
			if err := m.Read(dataGPA, got); err != nil {
				t.Fatal(err)
			}
			want := data
			if wantSts == virtio.BlkSOK {
				off := sector * blk.SectorSize
				if write {
					copy(model[off:], data)
				} else {
					want = model[off : off+uint64(n)]
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("type %d sector %#x n %d status %d: data buffer differs from the model",
					typ, sector, n, sts[0])
			}
			for _, c := range []*virtio.Queue{q, b.Queue(0)} {
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
		img, err := disk.ReadSync(0, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, model) {
			t.Fatal("disk image differs from the model")
		}
	})
}
