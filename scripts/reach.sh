#!/usr/bin/env bash
# Reach report: which simulator functions does the repository's own
# traffic never run? Builds the CLIs, the examples and the benchmark with
# coverage instrumentation over every package of the module, runs the
# traffic the repository itself sends, and checks the non-test functions
# that ran 0% of their statements against an allow list. Run from
# anywhere:
#
#   bash scripts/reach.sh
#
# The traffic is `svtbench -all -quick`; every svtsim command CI runs;
# each workload x mode x port; a traced load-balancer run and a traced,
# metered fault run with a delay site; every example; svtsimd driven by
# examples/serve and `svtsim -submit`; each bench workload for one
# second, and one traced bench run. A fresh temporary directory keeps
# the binaries, the raw counters and the merged profile, cover.out,
# whose blocks show which branches inside a reached function never ran;
# stderr names it. The daemon listens on 127.0.0.1:8941.
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
# Stdout lists each 0% function with its reason, then three lists:
# unlisted 0% functions, stale allow entries (listed but no longer at
# 0%, or gone) and failed runs. The exit status is 0 when all three are
# empty and every entry's reason is one of the four, 1 otherwise.
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
quiet "$sim" -lb 3 -lb-scenario steady -host 2x2x2 -trace lb-trace.json
quiet "$sim" -portcmp -n 200
for p in x86 armlike; do
	quiet "$sim" -port=$p -check 10 -check-seed 1
	quiet "$sim" -port=$p -host 1x2x2 -vms 3 -density -slo 500 -parallel=1
done

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

allow=$root/scripts/reach.allow
status=0
entries='!/^[[:space:]]*(#|$)/'
bad=$(awk "$entries"' && $3 !~ /^(diag|failure|harness|interface)$/ { print "scripts/reach.allow:" FNR ": " $0 }' "$allow")
if [ -n "$bad" ]; then
	echo "reach: allow entries with no reason from diag, failure, harness, interface:" >&2
	echo "$bad" >&2
	status=1
fi
awk "$entries"' { print $1, $2, $3 }' "$allow" | LC_ALL=C sort >"$out/allowed"
awk 'NR == FNR { reason[$1 " " $2] = $3; next }
	{ r = reason[$1 " " $2]; print $1, $2, (r == "" ? "UNLISTED" : r) }' "$out/allowed" "$out/zero"
LC_ALL=C comm -23 "$out/zero" <(cut -d' ' -f1,2 "$out/allowed") >"$out/unlisted"
LC_ALL=C comm -13 "$out/zero" <(cut -d' ' -f1,2 "$out/allowed") >"$out/stale"
for list in unlisted stale failed; do
	n=$(wc -l <"$out/$list")
	case $list in
	unlisted) echo "unlisted 0% functions ($n):" ;;
	stale) echo "stale allow entries ($n):" ;;
	failed) echo "failed runs ($n):" ;;
	esac
	sed 's/^/  /' "$out/$list"
	[ "$n" = 0 ] || status=1
done
exit $status
