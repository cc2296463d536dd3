#!/usr/bin/env bash
# Reach report: which simulator functions does the repository's own
# traffic never run? Builds the CLIs, the examples and the benchmark with
# coverage instrumentation over every package of the module, runs the
# traffic the repository itself sends, and prints the non-test functions
# that ran 0% of their statements. Run from anywhere:
#
#   bash scripts/reach.sh
#
# The traffic is `svtbench -all -quick`; every svtsim command CI runs;
# each workload x mode x port; every example; svtsimd driven by
# examples/serve and `svtsim -submit`; and each bench workload for one
# second. A fresh temporary directory keeps the binaries, the raw
# counters and the merged profile, cover.out, whose blocks show which
# branches inside a reached function never ran; the report names it.
# The daemon listens on 127.0.0.1:8941.
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

# A run that fails is named on stderr and the report goes on; a Go
# program that panics writes no counters, so its reach is lost.
quiet() { "$@" >/dev/null 2>&1 || echo "reach: failed (exit $?): ${*#"$bin"/}" >&2; }
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

go tool covdata textfmt -i="$cov" -o "$out/cover.out"
# The bench module is not part of this one; report the simulator only.
grep -v '^svtsim/bench/' "$out/cover.out" > "$out/cover.sim.out"
cd "$root"
echo "non-test functions at 0% (profile: $out/cover.out):"
go tool cover -func="$out/cover.sim.out" | awk '$NF == "0.0%" { print $1, $2 }'
