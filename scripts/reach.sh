#!/usr/bin/env bash
# Reach report: which simulator functions, and which blocks of the exit
# path, does the repository's own traffic never run? Builds the CLIs, the
# examples and the benchmark with coverage instrumentation over every
# package of the module, runs the traffic the repository itself sends,
# and checks the non-test functions that ran 0% of their statements
# against one allow list and the unreached blocks of cpu, guest, hv,
# machine, swsvt and virtio against another. Run from anywhere:
#
#   bash scripts/reach.sh
#
# The traffic is `svtbench -all -quick`; every svtsim command CI runs;
# each workload x mode x port; density on hosts without SMT; a traced
# load-balancer run, a traced, metered fault run with a delay site, a
# run whose first reflection falls back and runs under heavy wakeup
# loss; lost and late virtio completions; one long traced run; every
# example; svtsimd driven by examples/serve and `svtsim
# -submit`; each bench workload for one second, and one traced bench
# run. A fresh temporary directory keeps the binaries, the raw counters
# and the merged profile, cover.out, whose blocks show which branches
# inside a reached function never ran; stderr names it. The daemon listens on 127.0.0.1:8941.
#
# scripts/reach.allow lists every function the traffic may leave at 0%,
# one per line: the file (from the repository root), the function as
# Func or Recv.Method (receiver type without * or type parameters), a
# reason and an optional note. Lines keyed this way survive unrelated
# edits; blank lines and # comments are ignored. The reasons are:
#
#   diag       String/Error methods and stall-probe text
#   failure    code that runs only when something fails
#   harness    code only tests or CI's `go test -bench` benchmarks drive
#   interface  a no-op a Go interface requires; the note names the
#              ROADMAP item that deletes it
#
# Anything else the traffic never runs is deleted, or reached by adding
# the command that runs it to the traffic below.
#
# scripts/reach.blocks does the same for blocks, the branches inside
# functions that ran, in internal/cpu, guest, hv, machine, swsvt and
# virtio. A block's count is the highest any binary recorded. An entry
# is the file, the enclosing Func or Recv.Method, an eight-digit hash of
# the block's text (comments dropped, whitespace collapsed), a reason
# and an optional note; the unlisted list below prints the key to copy.
# A block whose one statement is a panic or the return of an error
# counts as failure with no entry; it may still be listed to carry a
# note. A program that panics writes no counters, so a block only the
# failed runs would reach is listed, with a note naming the ROADMAP item
# that mends the run, never deleted.
#
# Stdout lists each 0% function and each unreached block with its
# reason, then five lists: unlisted 0% functions, unlisted unreached
# blocks, stale allow and block entries (listed but no longer unreached,
# or gone) and failed runs. The exit status is 0 when all five are empty
# and every entry's reason is one of the four, 1 otherwise.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
bin=$out/bin
cov=$out/cov
run=$out/run
port=8941
mkdir -p "$bin" "$cov" "$run"
export GOCOVERDIR=$cov

cd "$root"
build() { go build -cover -coverpkg=svtsim/... -o "$bin/$1" "$2"; }
build svtsim ./cmd/svtsim
build svtsimd ./cmd/svtsimd
build svtbench ./cmd/svtbench
for d in examples/*/; do
	ex=$(basename "$d")
	build "ex-$ex" "./examples/$ex"
done
go -C bench build -cover -coverpkg=svtsim/... -o "$bin/bench" .

# A run that fails is named on stderr and in the report's failed runs,
# and the traffic goes on; a Go program that panics writes no counters,
# so its reach is lost.
failed=$out/failed
touch "$failed"
quiet() {
	"$@" >/dev/null 2>&1 && return
	echo "reach: failed (exit $?): ${*#"$bin"/}" >&2
	echo "${*#"$bin"/}" >>"$failed"
}
# Commands whose exit status is part of what they check (refused flags,
# injected faults) may exit nonzero; only their reach matters here.
tolerate() { "$@" >/dev/null 2>&1 || true; }
sim=$bin/svtsim

cd "$run"
echo "reach: svtbench -all -quick" >&2
quiet "$bin/svtbench" -all -quick -root "$root"
quiet "$bin/svtbench" -trace trace.json -quick -root "$root"

echo "reach: svtsim, CI commands" >&2
quiet "$sim" -check 25 -check-seed 1 -check-dir repros
for f in "$root"/internal/check/testdata/*.sched; do quiet "$sim" -replay "$f"; done
quiet "$sim" -host 1x2x2 -vms 3 -density -slo 500 -parallel=8
quiet "$sim" -host 1x2x2 -vms 3 -density -slo 500 -trace density-trace.json
quiet "$sim" -migrate 2:0,5:3 -check-seed 7
quiet "$sim" -storm 12 -vms 6 -host 1x4x2 -storm-seed 42 -parallel=8
quiet "$sim" -lb 3 -lb-scenario all -host 2x2x2 -parallel=8
tolerate "$sim" -lb 3 -lb-scenario steady -host 2x2x2 -faults 'net/segment:rate=0.05,drop'
quiet "$sim" -lb 3 -lb-scenario steady -host 2x2x2 -faults 'net/segment:rate=0.05,delay=20us' -parallel=8
quiet "$sim" -lb 3 -lb-scenario steady -host 2x2x2 -trace lb-trace.json
quiet "$sim" -portcmp -n 200
for p in x86 armlike; do
	quiet "$sim" -port=$p -check 10 -check-seed 1
	quiet "$sim" -port=$p -check 150 -check-seed 1
	quiet "$sim" -port=$p -host 1x2x2 -vms 3 -density -slo 500 -parallel=1
done
# Hosts without SMT: SW-SVt gangs land on idle contexts of distinct cores
# of one socket, or of distinct sockets.
quiet "$sim" -host 1x4x1 -vms 3 -density -slo 500
quiet "$sim" -host 2x1x1 -vms 2 -density -slo 500

echo "reach: svtsim, each workload x mode x port" >&2
for p in x86 armlike; do
	for m in baseline sw-svt hw-svt hw-svt-bypass; do
		quiet "$sim" -port=$p -mode $m -workload cpuid -dump-exits 8
		for w in cpuid netrr stream diskrd diskwr memcached tpcc video; do
			quiet "$sim" -port=$p -mode $m -workload $w -n 200
		done
	done
done
quiet "$sim" -workload cpuid -mode sw-svt -fault-seed 11 \
	-faults 'swsvt/wakeup:rate=0.3,drop;apic/ipi:rate=0.3,drop'
quiet "$sim" -workload cpuid -mode sw-svt -fault-seed 7 \
	-faults 'swsvt/ring-push:rate=0.2,drop,delay=1us;swsvt/ring-pop:rate=0.2,drop,delay=1us'
quiet "$sim" -workload diskrd -mode sw-svt -faults 'apic/irq:rate=0.5,delay=20us,jitter=10us' \
	-trace fault-trace.json -metrics fault-metrics.csv
# Lost and late device completions. A lost completion leaves the guest
# waiting for good, so that run ends on deadlock detection.
tolerate "$sim" -workload diskrd -mode hw-svt -faults 'virtio/complete:rate=0.3,drop'
quiet "$sim" -workload diskrd -mode sw-svt -faults 'virtio/complete:rate=0.3,delay=20us'
# A traced run long enough for the engine track's sampled dispatch
# markers, and a metered run with no SW-SVt channel.
quiet "$sim" -workload memcached -mode sw-svt -trace long-trace.json
quiet "$sim" -workload netrr -mode baseline -n 50 -metrics baseline-metrics.csv
# The first reflection falls back before the SVt-thread has ever run.
for p in x86 armlike; do
	quiet "$sim" -port=$p -workload netrr -mode sw-svt -n 50 \
		-faults 'swsvt/wakeup:every=1,limit=4,drop'
done
# Heavy wakeup loss: reflections fall back mid-run, and L1's main vCPU
# drives the drivers the SVt-thread wired.
for p in x86 armlike; do
	quiet "$sim" -port=$p -workload netrr -mode sw-svt \
		-faults 'swsvt/wakeup:rate=0.3,drop' -fault-seed 11
done

echo "reach: examples" >&2
for d in "$root"/examples/*/; do
	ex=$(basename "$d")
	[ "$ex" = serve ] && continue
	quiet "$bin/ex-$ex"
done

echo "reach: svtsimd" >&2
"$bin/svtsimd" -listen 127.0.0.1:$port -workers 2 2>svtsimd.log &
daemon=$!
trap 'kill $daemon 2>/dev/null || true' EXIT
for _ in $(seq 50); do
	curl -sf 127.0.0.1:$port/v1/healthz >/dev/null && break
	sleep 0.1
done
quiet "$bin/ex-serve" -url http://127.0.0.1:$port -host 1x2x2 -vms 3
quiet "$bin/ex-serve"
while read -r args; do
	quiet "$sim" -submit http://127.0.0.1:$port $args
done <<'ARGS'
-workload netrr -mode sw-svt -n 200 -trace served-trace.json
-workload netrr -mode sw-svt -n 200 -trace served-trace.json
-host 1x2x2 -vms 3 -density -slo 500
-storm 12 -vms 6 -host 1x4x2 -storm-seed 42
-lb 3 -lb-scenario all -host 2x2x2
-port armlike -workload cpuid
-check 3
ARGS
tolerate "$sim" -submit http://127.0.0.1:$port -portcmp -n 50
quiet curl -sf 127.0.0.1:$port/v1/cache
quiet curl -sf 127.0.0.1:$port/v1/metrics
kill -TERM $daemon
wait $daemon || true
trap - EXIT

echo "reach: bench workloads" >&2
for w in cpuid fleet io svtsimd; do
	(cd "$root" && quiet "$bin/bench" -workload $w -seconds 1 -trace 0)
done
(cd "$root" && quiet "$bin/bench" -workload io -seconds 1 -trace 1 -trace-dir "$run")

go tool covdata textfmt -i="$cov" -o "$out/cover.out"
# The bench module is not part of this one; report the simulator only.
grep -v '^svtsim/bench/' "$out/cover.out" >"$out/cover.sim.out"
cd "$root"
echo "reach: profile $out/cover.out" >&2

# key prints "file Func" or "file Recv.Method" for a `go tool cover
# -func` row "svtsim/dir/file.go:line: Name".
key() {
	local file=${1#svtsim/} src
	file=${file%%:*}
	src=$(sed -n "$(echo "$1" | cut -d: -f2)p" "$file")
	if [[ $src =~ ^func\ \(([A-Za-z0-9_]+\ )?\*?([A-Za-z0-9_]+) ]]; then
		echo "$file ${BASH_REMATCH[2]}.$2"
	else
		echo "$file $2"
	fi
}
# A function with an empty body has no statements, so `cover -func`
# shows it at 0% even when it ran; its body's block count says whether
# it did.
go tool cover -func="$out/cover.sim.out" |
	awk 'NR == FNR { if ($2 == 0 && $3 > 0) { sub(/\.[0-9]+,.*/, "", $1); ran[$1] = 1 }; next }
	$NF == "0.0%" { pos = $1; sub(/:$/, "", pos); if (!(pos in ran)) print $1, $2 }' "$out/cover.sim.out" - |
	while read -r pos name; do key "$pos" "$name"; done | LC_ALL=C sort >"$out/zero"

# Blocks: in the packages of the exit path the check goes below whole
# functions. From the profile, each block's count is the highest any
# binary recorded, so a block two binaries share counts once. A block
# left at 0 inside a function that ran is keyed by file, enclosing
# function and an eight-digit hash of its text with comments dropped and
# whitespace collapsed, so the key survives line shifts. A block whose
# one statement is a panic or the return of an error counts as failure
# with no listing.
LC_ALL=C awk -v pkgs='^svtsim/internal/(cpu|guest|hv|machine|swsvt|virtio)/' '
NR > 1 && $1 ~ pkgs { stmts[$1] = $2; if (!($1 in n) || $3 > n[$1]) n[$1] = $3 }
END { for (b in n) if (n[b] == 0) print b, stmts[b] }' "$out/cover.sim.out" |
	LC_ALL=C awk 'BEGIN {
	for (i = 1; i < 256; i++) ord[sprintf("%c", i)] = i
	errv = "(err|[A-Za-z0-9_.]*Err[A-Za-z0-9_]*|(fmt\\.Errorf|errors\\.New|uerr\\.New)\\(.*\\))"
	failure = "^(panic\\(.*\\)|return (.*, )?" errv ")$"
}
{
	file = $1; sub(/^svtsim\//, "", file); sub(/:.*/, "", file)
	split($1, pos, /[:.,]/)   # file.go:L0.C0,L1.C1 -> pos[3..6]
	sl = pos[3]; sc = pos[4]; el = pos[5]; ec = pos[6]
	if (!(file in lines)) {
		k = 0
		while ((getline l < file) > 0) src[file, ++k] = l
		close(file)
		lines[file] = k
	}
	fn = "?"
	for (i = sl; i > 0; i--) {
		l = src[file, i]
		if (l !~ /^func /) continue
		sub(/^func /, "", l)
		recv = ""
		if (l ~ /^\(/) {
			recv = substr(l, 2, index(l, ")") - 2)
			l = substr(l, index(l, ")") + 2)
			sub(/.* \*?/, "", recv); sub(/\[.*/, "", recv)
			recv = recv "."
		}
		sub(/[[(].*/, "", l)
		fn = recv l
		break
	}
	t = ""
	for (i = sl; i <= el; i++) {
		l = src[file, i]
		if (i == el) l = substr(l, 1, ec - 1)
		if (i == sl) l = substr(l, sc)
		sub(/\/\/.*/, "", l)
		t = t " " l
	}
	gsub(/[ \t]+/, " ", t); sub(/^ /, "", t); sub(/ $/, "", t)
	h = 0
	for (i = 1; i <= length(t); i++) h = (h * 131 + ord[substr(t, i, 1)]) % 2147483647
	body = t; sub(/^\{ ?/, "", body); sub(/ ?\}$/, "", body)
	auto = $2 == 1 && body ~ failure
	printf "%s %s %08x %d %s:%d %s\n", file, fn, h, auto, file, sl, substr(body, 1, 60)
}' | LC_ALL=C sort -k5,5V >"$out/blocks.all"
# Blocks inside a 0% function are the function list's business.
awk 'FILENAME == ARGV[1] { zero[$1 " " $2] = 1; next } !(($1 " " $2) in zero)' "$out/zero" "$out/blocks.all" >"$out/blocks"

status=0
entries='!/^[[:space:]]*(#|$)/'
for list in allow blocks; do
	f=$root/scripts/reach.$list
	reasons=$([ $list = allow ] && echo 3 || echo 4)
	bad=$(awk "$entries"' && $'$reasons' !~ /^(diag|failure|harness|interface)$/ { print FILENAME ":" FNR ": " $0 }' "$f")
	if [ -n "$bad" ]; then
		echo "reach: entries with no reason from diag, failure, harness, interface:" >&2
		echo "$bad" >&2
		status=1
	fi
done
awk "$entries"' { print $1, $2, $3 }' "$root/scripts/reach.allow" | LC_ALL=C sort >"$out/allowed"
awk "$entries"' { print $1, $2, $3, $4 }' "$root/scripts/reach.blocks" | LC_ALL=C sort >"$out/listed"
awk 'NR == FNR { reason[$1 " " $2] = $3; next }
	{ r = reason[$1 " " $2]; print $1, $2, (r == "" ? "UNLISTED" : r) }' "$out/allowed" "$out/zero"
# Each unreached block with its reason: a listed one's, else failure for
# a panic or an error return.
awk 'FILENAME == ARGV[1] { reason[$1 " " $2 " " $3] = $4; next }
	{ r = reason[$1 " " $2 " " $3]; if (r == "") r = $4 ? "failure" : "UNLISTED"; print $5, $2, $3, r }' "$out/listed" "$out/blocks"
LC_ALL=C comm -23 "$out/zero" <(cut -d' ' -f1,2 "$out/allowed") >"$out/unlisted"
LC_ALL=C comm -13 "$out/zero" <(cut -d' ' -f1,2 "$out/allowed") >"$out/stale"
# An unlisted block is printed with its position and the start of its
# text; its first three fields are the entry to add.
awk 'FILENAME == ARGV[1] { listed[$1 " " $2 " " $3] = 1; next }
	!$4 && !(($1 " " $2 " " $3) in listed) { $4 = "#"; print }' "$out/listed" "$out/blocks" >"$out/unlisted-blocks"
LC_ALL=C comm -13 <(cut -d' ' -f1-3 "$out/blocks" | LC_ALL=C sort -u) <(cut -d' ' -f1-3 "$out/listed") >"$out/stale-blocks"
for list in unlisted unlisted-blocks stale stale-blocks failed; do
	n=$(wc -l <"$out/$list")
	case $list in
	unlisted) echo "unlisted 0% functions ($n):" ;;
	unlisted-blocks) echo "unlisted unreached blocks ($n):" ;;
	stale) echo "stale allow entries ($n):" ;;
	stale-blocks) echo "stale block entries ($n):" ;;
	failed) echo "failed runs ($n):" ;;
	esac
	sed 's/^/  /' "$out/$list"
	[ "$n" = 0 ] || status=1
done
exit $status
