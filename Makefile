# Convenience targets; `make check` is the tier-1 gate.

.PHONY: all build test test-parallel chaos vm-smoke devices-smoke daemon-smoke tune-smoke attn-smoke crash-smoke check fmt-check fmt clean

all: build

build:
	dune build

test:
	dune runtest

# Run the suite again with two worker domains so the parallel plan
# enumeration path (and the domain-safety of memo/trace) is exercised on
# every push, not just the sequential default.  test/dune declares
# GCD2_JOBS as a dependency, so this is not a cached no-op after `test`.
test-parallel:
	GCD2_JOBS=2 dune runtest

# Tiny cross-device benchmark: three models on every built-in
# descriptor, writing BENCH_devices.json.
devices-smoke: build
	./_build/default/bench/main.exe devices-smoke

# Formatting gate: enforced when ocamlformat is available (the committed
# .ocamlformat pins the style), skipped with a note otherwise so `check`
# still works on minimal toolchains.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping formatting gate"; \
	fi

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune fmt; \
	else \
		echo "ocamlformat not installed; cannot format"; \
	fi

# Chaos gate: the fault-injection suite under a fixed GCD2_FAULTS spec
# (fixed seed, so every CI failure replays locally with this exact
# command).  The suite also runs fault-free as part of `test`; this
# pass re-runs it with every injection point firing at a meaningful
# rate, asserting the service never crashes, never serves wrong bits,
# and always converges back to fault-free behaviour.
chaos: build
	GCD2_FAULTS="seed=20260807,cache-read=0.3,cache-write=0.3,artifact-decode=0.5,memo-lookup=0.3,pool-worker=0.2,flight-lease=0.3,janitor-unlink=0.3" \
		./_build/default/test/test_main.exe test chaos

# Tiny vm benchmark: exercises both the translated engine and the
# reference interpreter on every opcode plus a small whole model, and
# fails if their outputs or statistics ever diverge.
vm-smoke: build
	./_build/default/bench/main.exe vm-smoke

# Autotuner smoke: a tiny costing budget on two models walks the full
# tune path (enumerate, cost, rank) and fails if the tuned
# schedule is ever worse than the adaptive heuristic.  The full-zoo
# run (`bench/main.exe tune`) writes BENCH_codegen.json.
tune-smoke: build
	./_build/default/bench/main.exe tune-smoke

# Transformer-kernel smoke: TinyBERT at a bucketed sequence length,
# compiled with the attention kernels off and on, fails unless the
# kernels flip the model majority-DSP.  The full run
# (`bench/main.exe attn`) writes BENCH_attn.json.
attn-smoke: build
	./_build/default/bench/main.exe attn-smoke

# Daemon load smoke: the serve-load generator against a live daemon,
# first with two workers under a fixed fault spec (faulted workers must
# absorb every injection without dropping a session), then fault-free
# across the worker sweep, writing BENCH_serve.json.
daemon-smoke: build
	GCD2_SERVE_LOAD_WORKERS=2 GCD2_SERVE_LOAD_MS=800 \
	GCD2_FAULTS="seed=20260808,cache-read=0.2,artifact-decode=0.2,memo-lookup=0.2" \
		./_build/default/bench/main.exe serve-load-smoke
	./_build/default/bench/main.exe serve-load-smoke

# Kill-chaos smoke: real daemon processes SIGKILLed mid-compile under a
# fixed seed, restarted over the wreckage.  Fails unless recovered
# responses are bit-identical to the fault-free baseline, no client
# wedges, a peer daemon breaks a dead leader's lease, and the janitor
# converges the shared cache directory (zero .tmp, within budget).
# Appends a "crash" recovery-time key to BENCH_serve.json.
crash-smoke: build
	GCD2_CRASH_ROUNDS=3 ./_build/default/bench/main.exe crash-smoke

check: build test test-parallel chaos vm-smoke devices-smoke daemon-smoke tune-smoke attn-smoke crash-smoke fmt-check

clean:
	dune clean
