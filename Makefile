# Tier-1 verification gate. Every change must keep `make verify` green.
.PHONY: verify build vet test race chaos lint loc profile-relay profile-sim bench-build bench-sched bench-hier bench-obs bench-frontier bench-relay stress-hier chaos-hier chaos-rdn chaos-elastic audit-smoke obs-smoke

verify: build vet lint test bench-build race audit-smoke obs-smoke bench-sched bench-hier bench-obs bench-frontier bench-relay stress-hier chaos-rdn chaos-elastic

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The benchmark harness under bench/ is its own module (gage/bench, replace
# gage => ../) that imports cluster, dispatch, benchkit, core, telemetry and
# obs, so `go build ./...` here never compiles it. Vet and test it too: an
# API change that breaks the harness must fail locally, not in the driver.
bench-build:
	go -C bench vet ./...
	go -C bench test ./...

# Every package runs under the race detector: the scheduler and dispatcher
# are the concurrency hot spots (connection goroutines vs ticker vs
# concurrent accounting pollers), and the chaos/fault suites add crash-time
# races worth catching everywhere else too.
race:
	go test -race ./internal/...

# Fault-injection suite: the simulator's chaos tests (replayable crash
# schedules, settlement and balance invariants, the 3×-load overload drill)
# and the live dispatcher's scripted-outage, health-flap, overload-shedding
# and drain drills, the backend connection pool's and keep-alive loop's
# failure drills (stale, crashed, drained, breaker-opened and shut-down
# connections), the relay's streaming drills (a backend or a client breaking
# off mid-body, mis-framed and oversized heads), and the dispatch handshake's
# (a tick, an admin delete and Close's hand-off each racing the handler that
# gives the request up, on records that are reused), run twice to shake out
# order dependence between runs.
chaos:
	go test -race -count=2 -run 'TestChaos|TestDiffReports|TestMaxConns|TestAdmission|TestPool|TestKeepAlive|TestRelay|TestAbandon|TestStale|TestTimedOut|TestAdminDelete|TestCloseHand' \
		./internal/cluster/ ./internal/core/ ./internal/dispatch/ ./internal/faults/ ./internal/backend/
	go test -race -count=2 ./internal/breaker/

# benchgate runs one gated benchmark family: $(1) is the target's name, $(2)
# the go test arguments. The JSON goes to a temporary file — verify leaves
# the working tree as it found it, and nothing is kept between runs: the
# gate is absolute, not a comparison. Every result line is printed and the
# target fails if any reads other than "0 allocs/op", or if there is none.
# ns/op is there to be read, never gated: this VM has two speeds 30–60 %
# apart.
define benchgate
@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT; \
go test -run '^$$' $(2) -benchmem -json > "$$out" || \
	{ grep -h '"Output"' "$$out" | tail -20; echo "$(1): benchmark run failed"; exit 1; }; \
grep 'allocs/op' "$$out" | \
	sed -E 's/.*"Test":"([^"]*)".*"Output":"([^"]*)\\n"\}$$/\1\2/; s/\\t/ /g; s/  +/  /g'; \
n=$$(grep -c 'allocs/op' "$$out"); \
bad=$$(grep 'allocs/op' "$$out" | grep -vc '[^0-9]0 allocs/op'); \
if [ "$$n" -eq 0 ] || [ "$$bad" -ne 0 ]; then \
	echo "$(1): $$n result lines, $$bad not at 0 allocs/op; want at least one line and 0 allocs/op on each"; exit 1; fi
endef

# Scheduler hot-path scale trajectory: one steady-state scheduling cycle
# (arrivals + Tick + accounting feedback, 64-subscriber working set) at
# 1k/10k/100k registered subscribers, flight recorder off and on, and the
# same cycle at 10k with the arrivals going through Submit (the regexp
# matches SchedCycleSubmit too). Per-cycle cost must stay flat across the
# sweep (O(1) per dispatch decision) and allocs/op must stay 0.
bench-sched:
	$(call benchgate,bench-sched,-bench SchedCycle -benchtime=300x ./internal/core/)

# Hierarchical-scale trajectory: one steady-state scheduling cycle with a
# fixed 100-subscriber Zipf(1.1) hot set across 32 tenant groups while the
# registered population sweeps 1k→1M, flight recorder off and on. Per-cycle
# cost must stay flat within 2× across the sweep (O(active groups +
# dispatched members), idle subscribers never materialize) and allocs/op
# must stay 0. The generous benchtime amortizes fixture-construction GC debt
# out of the per-op numbers.
bench-hier:
	$(call benchgate,bench-hier,-bench HierCycle -benchtime=2000x ./internal/core/)

# Zipf stress, short mode: the simulator-side hierarchical scenario (mostly
# idle population across 16 tenant groups, Zipf-skewed hot set) with its
# settlement, no-shed, and zero-violation-span audits.
stress-hier:
	go test -short -run 'TestHierStress|TestChaosHierZipf' ./internal/cluster/

# Zipf stress under chaos: the hierarchical scenario driven through the PR-2
# node crash/recover plan under the race detector, twice — no tenant group's
# guarantee may break while a quarter of the cluster is down.
chaos-hier:
	go test -race -count=2 -run 'TestChaosHierZipf|TestHierStress' ./internal/cluster/

# RDN failover drill under the race detector: a deterministic 3-instance
# front-end tier loses one instance mid-run and recovers it. Asserts the
# takeover lands within one lease interval, settlement is exactly-once
# (admission and dispatch books close), the blast radius stays inside the
# victim's partition, and the merged flight-recorder audit sees clean
# survivors — plus run-to-run determinism and the lease-delay fencing case.
chaos-rdn:
	go test -race -run 'TestChaosRDNFailover|TestFrontierLeaseDelayFencing|TestFrontierSingleRDNMatchesRun' \
		./internal/cluster/

# Elasticity drill under the race detector: the scripted admission plane
# (mid-run subscriber admit/resize/remove, node add with slow-start ramp,
# feasibility-gated drain, and a refused infeasible admission) audited to
# zero violation spans for untouched subscribers, plus run-to-run
# determinism and the live admin API's property/decoder suites with a
# short fuzz smoke over the admin JSON decoders and over the httpwire head
# scanner, each input held against the reference parser.
chaos-elastic:
	go test -race -run 'TestElasticityDrill|TestAdmin|TestServeAdmin' \
		./internal/cluster/ ./internal/dispatch/
	go test -run '^$$' -fuzz FuzzAdminDecoders -fuzztime 10s ./internal/dispatch/
	go test -run '^$$' -fuzz FuzzReadRequest -fuzztime 10s ./internal/httpwire/
	go test -run '^$$' -fuzz FuzzReadResponse -fuzztime 10s ./internal/httpwire/

# Front-end tier scale trajectory: one steady-state tier-wide scheduling
# cycle (128 subscribers over 32 rendezvous-partitioned groups) at 1, 2 and
# 3 front ends. Tier-wide per-cycle cost must stay flat vs the single-RDN
# baseline (each instance does ~1/N of the work) and allocs/op must stay 0.
bench-frontier:
	$(call benchgate,bench-frontier,-bench FrontierCycle -benchtime=2000x ./internal/frontier/)

# The live relay: keep-alive clients through an in-process dispatcher and two
# backends, every allocation in the process counted — the dispatcher's two
# parses, the backend's, this client's, the scheduler, the pools. It must read
# 0 allocs/op: a head goes into a buffer its message keeps, and everything
# else a request needs belongs to its connection. The long run amortizes
# building the connections and the pools.
bench-relay:
	$(call benchgate,bench-relay,-bench '^BenchmarkRelayKeepAlive$$' -benchtime=20000x ./internal/dispatch/)

# Unified-event-bus overhead trajectory: the raw ring publish and the
# scheduler Tick with recorder + bus mirroring, next to the recorder-only
# Tick baseline. Publish and bus-on Tick must stay 0 allocs/op, and the
# bus's marginal Tick cost within ~10% of the recorder-only path
# (bench-sched's recorder-on lines).
bench-obs:
	$(call benchgate,bench-obs,-bench 'ObsPublish|ObsTickRecorderAndBus|FlightrecTickRecorderOn' \
		-benchtime=50000x ./internal/obs/ ./internal/flightrec/)

# End-to-end observability round trip through the CLI: replay a trace with
# the unified event log on (the reservation is deliberately infeasible, so
# the auditor opens violation spans), schema-lint the spilled event log,
# then render the explain story — gen → replay -events → lint → explain
# exactly as an operator would.
obs-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/gagetrace gen -kind specweb -rate 300 -duration 5s \
		-out "$$tmp/trace.jsonl" && \
	go run ./cmd/gagetrace replay -rpns 1 -grps 5000 -warmup 1s -window 2s \
		-cycles "$$tmp/cycles.jsonl" -events "$$tmp/events.jsonl" \
		"$$tmp/trace.jsonl" && \
	go run ./cmd/gagetrace lint "$$tmp/events.jsonl" && \
	go run ./cmd/gagetrace explain -cycles "$$tmp/cycles.jsonl" -warmup 1s \
		-window 2s site1 "$$tmp/events.jsonl"

# End-to-end flight-recorder round trip through the CLI: generate a short
# SPECweb99 trace, replay it through the simulator spilling the per-cycle
# log, then audit the log offline. Exercises gen → replay -cycles → audit
# exactly as an operator would.
audit-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/gagetrace gen -kind specweb -rate 80 -duration 3s \
		-poisson -out "$$tmp/trace.jsonl" && \
	go run ./cmd/gagetrace replay -rpns 2 -grps 60 \
		-cycles "$$tmp/cycles.jsonl" "$$tmp/trace.jsonl" && \
	go run ./cmd/gagetrace audit -warmup 1s "$$tmp/cycles.jsonl"

# The live path's allocation ledger: the two relay benchmarks (the benchmark's
# saturation testbed in one process, keep-alive and one connection per
# request) run with every allocation profiled, and each function's allocated
# objects printed per request — flat, cumulative, name — so nobody has to
# patch a copy of bench/main.go to get one. The client's own allocations are
# in it (net.Dial…); a keep-alive ledger with no row under the header is the
# healthy one. ns/op under -memprofilerate=1 means nothing.
PROFILE_REQUESTS ?= 20000
profile-relay:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for b in KeepAlive ConnPerRequest; do \
		go test -run '^$$' -bench "^BenchmarkRelay$$b$$" -benchtime=$(PROFILE_REQUESTS)x -memprofilerate=1 \
			-memprofile "$$tmp/$$b.mem" -o "$$tmp/dispatch.test" ./internal/dispatch/ | grep '^Benchmark' && \
		go tool pprof -sample_index=alloc_objects -top -nodecount=40 "$$tmp/dispatch.test" "$$tmp/$$b.mem" 2>/dev/null | \
			awk -v n=$(PROFILE_REQUESTS) 'seen && $$4/n >= 0.05 { printf "%8.2f %8.2f  %s\n", $$1/n, $$4/n, $$6 } \
				/flat%/ { seen = 1; print "    flat      cum  allocations per request" }' || exit 1; \
	done

# The simulator's counterpart: BenchmarkTable1 with every allocation profiled
# and the CPU sampled, each function's allocated bytes and objects printed per
# delivered request — flat, cumulative, name — then the CPU top 15. The
# divisor is the run's own "delivered" metric times the iterations run, one
# more than -benchtime asks for (the testing package's b.N=1 probe is in the
# profile too). The CPU shares are of a run slowed by -memprofilerate=1: read
# them against each other, not as times.
PROFILE_RUNS ?= 20
profile-sim:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go test -run '^$$' -bench '^BenchmarkTable1$$' -benchtime=$(PROFILE_RUNS)x -memprofilerate=1 \
		-memprofile "$$tmp/mem" -cpuprofile "$$tmp/cpu" -o "$$tmp/gage.test" . > "$$tmp/out" || { cat "$$tmp/out"; exit 1; }; \
	grep '^Benchmark' "$$tmp/out" && \
	reqs=$$(awk -v runs=$(PROFILE_RUNS) '/^Benchmark/ { for (i = 2; i < NF; i++) if ($$(i+1) == "delivered") print $$i * (runs + 1) }' "$$tmp/out") && \
	for idx in alloc_space alloc_objects; do \
		go tool pprof -sample_index=$$idx -unit=b -top -nodecount=25 "$$tmp/gage.test" "$$tmp/mem" 2>/dev/null | \
			awk -v n="$$reqs" -v idx=$$idx 'seen && $$4/n >= 0.0005 { flat = $$1; cum = $$4; sub(/^.*% +/, ""); printf "%10.4f %10.4f  %s\n", flat/n, cum/n, $$0 } \
				/flat%/ { seen = 1; print "      flat        cum  " idx " per delivered request" }' || exit 1; \
	done; \
	go tool pprof -top -nodecount=15 "$$tmp/gage.test" "$$tmp/cpu" 2>/dev/null | sed -n '/flat%/,$$p'

# Static hygiene gate: gofmt drift (`vet` is its own target), and package
# unsafe anywhere but internal/httpwire, whose string view of a message's head
# buffer is the module's one use of it.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out=$$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=httpwire --exclude-dir=.bench_build \
		'^(import)?[[:space:]]*([[:alnum:]_.]+[[:space:]]+)?"unsafe"' . || true); if [ -n "$$out" ]; then \
		echo "unsafe imported outside internal/httpwire:"; echo "$$out"; exit 1; fi

# Non-test Go lines per top-level package, and for the root module (internal +
# cmd + examples): the figures ROADMAP's line budgets are read off.
loc:
	@for d in internal/* cmd/* bench examples; do \
		printf '%6d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)" $$d; done
	@printf '%6d root module\n' "$$(find internal cmd examples -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)"
