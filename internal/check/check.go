package check

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"svtsim/internal/exp"
	"svtsim/internal/ports"
)

// RunBudgetOpts generates and checks n schedules from consecutive seeds
// starting at seed under opts (most usefully a non-default architecture
// port, so the oracle checks mode-equivalence on every port), logging
// verdicts and a summary line to w and reporting each verdict to pr
// (nil for none). ctx is checked before each schedule. When dir is
// non-empty, every failure is shrunk under the same options — so a
// repro minimized on one port stays failing on that port — and written
// as a repro file under dir (created if needed). It returns the number
// of failing schedules.
func RunBudgetOpts(ctx context.Context, w io.Writer, n int, seed int64, dir string, opts *RunOpts, pr exp.ProgressFunc) (int, error) {
	failures := 0
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return failures, err
		}
		s := Generate(seed + int64(i))
		if opts != nil {
			s.Port = portName(opts.Port)
		}
		v := CheckSchedule(s, opts)
		fmt.Fprintf(w, "%s\n", v)
		if v.Failed() {
			failures++
			if dir != "" {
				min := Shrink(s, opts)
				fmt.Fprintf(w, "shrunk to %d ops\n", len(min.Ops))
				if path, err := WriteRepro(dir, min); err != nil {
					fmt.Fprintf(w, "repro write failed: %v\n", err)
				} else {
					fmt.Fprintf(w, "repro: %s (replay with svtsim -replay %s)\n", path, path)
				}
			}
		}
		if pr != nil {
			pr(exp.ProgressEvent{Stage: "check", Done: i + 1, Total: n, Detail: fmt.Sprintf("seed=%d", s.Seed)})
		}
	}
	fmt.Fprintf(w, "checked %d schedules (seeds %d..%d): %d failing\n", n, seed, seed+int64(n)-1, failures)
	return failures, nil
}

// WriteRepro stores the schedule's canonical encoding under dir and
// returns the file path. The content is exactly s.Encode(), so a decode
// → re-encode of the file is byte-identical.
func WriteRepro(dir string, s *Schedule) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, ReproName(s))
	if err := os.WriteFile(path, s.Encode(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReplayFile re-runs a repro (or corpus) schedule file under the full
// mode set on the port the file names and reports the verdict to w. The
// returned error is non-nil for unreadable/invalid files AND for failing
// verdicts, so callers can exit nonzero on either.
func ReplayFile(w io.Writer, path string) error { return replayFile(w, path, nil) }

// replayFile is ReplayFile under opts, whose Port the file's port
// replaces.
func replayFile(w io.Writer, path string, opts *RunOpts) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return err
	}
	var o RunOpts
	if opts != nil {
		o = *opts
	}
	if o.Port, err = ports.Parse(s.Port); err != nil {
		return err
	}
	v := CheckSchedule(s, &o)
	fmt.Fprintf(w, "%s\n", v)
	if v.Failed() {
		return fmt.Errorf("check: %s: schedule is inequivalent across modes", path)
	}
	return nil
}

// portName is a schedule's spelling of port p: "" for the default.
func portName(p ports.Port) string {
	if p == nil || p.Name() == ports.DefaultName {
		return ""
	}
	return p.Name()
}

// withMigrations generates the seeded schedule and overlays the given
// live-migration points in place of the generator's own: a single-core
// run moves to a four-core host (a migration needs a core to go to),
// and each After wraps into the op range.
func withMigrations(seed int64, pts []MigratePoint) *Schedule {
	s := Generate(seed)
	if s.Cores < 2 {
		s.Cores = 4
	}
	s.Migrate = nil
	for _, p := range pts {
		p.After %= len(s.Ops)
		s.Migrate = append(s.Migrate, p)
	}
	return s
}

// CheckMigrated runs the seeded schedule with the given live-migration
// points overlaid through the differential oracle: the guest-visible
// outcome must be invariant to when — and whether — the VM was migrated
// or rolled back. The verdict is printed to w; a non-nil error reports
// divergence.
func CheckMigrated(w io.Writer, seed int64, pts []MigratePoint) error {
	v := CheckSchedule(withMigrations(seed, pts), nil)
	fmt.Fprintln(w, v.String())
	if v.Failed() {
		return fmt.Errorf("check: schedule %d not invariant under migration", seed)
	}
	return nil
}
