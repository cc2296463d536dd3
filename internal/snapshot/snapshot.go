// Package snapshot captures and restores the full architectural state
// of a nested machine as a canonical serializable form: an ordered list
// of named sections, each a word stream. It extends
// machine.StateDigest — a summary of the transparency-relevant end
// state — into something a live migration can actually move: machine
// registers, every VMCS, the EPT hierarchy, LAPICs (pending sets and
// armed deadlines), guest memory, disk contents, virtqueue shadows, and
// the SW-SVt reflection-protocol state.
//
// The format is deliberately simple and deterministic: same machine
// state, same words, same digest, forever. Sections are captured in a
// fixed order and every set-valued component is serialized sorted, so a
// capture→restore→capture round trip is digest-verified by construction
// and any divergence is a restore bug (or a deliberately injected one —
// the differential harness's broken-restore tests corrupt a clone and
// watch the oracle catch the divergence downstream). Each component
// writes and reads its own section through its SaveWords/LoadWords
// codec (package words); this package only names the parts and fixes
// their order.
//
// A section stores its words as literal words plus ramps (words.Stream),
// so an EPT run or an unbacked memory line is one ramp rather than a
// copy of every word. The format is the logical word sequence: Digest,
// Bytes, DiffBytes, MutateWord and Restore all see only logical words,
// whatever the storage.
//
// Size reports an image's encoded size without building it, which is
// all a migration needs to price its transfer. Clones are copy-on-write:
// Clone shares every section's stored words and ramps, so forking an
// image costs a section table, not a memory image. Restore only ever
// reads from a snapshot, and MutateWord (the corruption/testing hook)
// writes a fresh copy of the section it changes, so clones never
// observe each other's mutations.
package snapshot

import (
	"fmt"

	"svtsim/internal/words"
)

// Section is one named word stream of the canonical form.
type Section struct {
	Name  string
	Words words.Stream
}

// Snapshot is a machine state in canonical serializable form.
type Snapshot struct {
	Sections []Section
}

// Section returns the named section, or nil.
func (s *Snapshot) Section(name string) *Section {
	for i := range s.Sections {
		if s.Sections[i].Name == name {
			return &s.Sections[i]
		}
	}
	return nil
}

// Digest folds every section name and word with FNV-1a (the fold
// machine.StateDigest uses). Two snapshots with equal digests carry
// identical state.
func (s *Snapshot) Digest() uint64 {
	h := words.FNVOffset
	for _, sec := range s.Sections {
		h = words.FNVBytes(h, sec.Name)
		h = words.FNVWord(h, uint64(sec.Words.Len()))
		h = sec.Words.Fold(h)
	}
	return h
}

// Bytes reports the encoded transfer size of the snapshot: eight bytes
// per word plus each section's name and length header. Migration prices
// its transfer phase from this.
func (s *Snapshot) Bytes() int {
	n := 0
	for _, sec := range s.Sections {
		n += sectionBytes(sec.Name, sec.Words.Len())
	}
	return n
}

// sectionBytes is one section's encoded size: its name, an eight-byte
// length header, and eight bytes per word.
func sectionBytes(name string, words int) int { return len(name) + 8 + 8*words }

// Clone returns a copy-on-write clone: the section table is copied, the
// sections' stored words and ramps are shared. Restore never writes to a
// snapshot, and MutateWord copies before writing, so sharing is safe.
func (s *Snapshot) Clone() *Snapshot {
	return &Snapshot{Sections: append([]Section(nil), s.Sections...)}
}

// DiffBytes reports the transfer size of the sections that differ from
// base (by name or content), pricing a warm incremental migration: a
// clone that never diverged costs zero.
func (s *Snapshot) DiffBytes(base *Snapshot) int {
	n := 0
	for _, sec := range s.Sections {
		b := base.Section(sec.Name)
		if b != nil && sec.Words.Equal(b.Words) {
			continue
		}
		n += sectionBytes(sec.Name, sec.Words.Len())
	}
	return n
}

// MutateWord overwrites logical word idx of a named section. It copies
// the section's words first, ramps expanded, so clones sharing the
// section are unaffected. It is the deliberate-corruption hook the
// broken-restore tests use (e.g. dropping a virtqueue index) — a
// faithful restore of the mutated snapshot then diverges downstream and
// the differential oracle must catch it.
func (s *Snapshot) MutateWord(name string, idx int, val uint64) error {
	sec := s.Section(name)
	if sec == nil {
		return fmt.Errorf("snapshot: no section %q", name)
	}
	if idx < 0 || idx >= sec.Words.Len() {
		return fmt.Errorf("snapshot: section %q has %d words, index %d out of range", name, sec.Words.Len(), idx)
	}
	sec.Words = sec.Words.Set(idx, val)
	return nil
}
