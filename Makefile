# Pre-PR gate: run `make check` before sending changes for review.
GO ?= go

.PHONY: check build test race vet fmt bench-test loc chaos multitenant scale delta failover churn crash

check: fmt vet race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# bench/ is its own module (replace-d onto this one), so `go test ./...`
# never enters it: this is what notices an internal API rename breaking
# the benchmark.
bench-test:
	cd bench && $(GO) vet . && $(GO) test .

# Code lines (no comments, no blanks, no tests, no benchmark module):
# the count the simplicity acceptance bars are stated in, tree-wide and
# for the packages those bars have named.
LOC = xargs cat | grep -vE '^\s*(//|$$)' | wc -l
# Fields of struct $(1) in file $(2): the lines of its body that are not
# comments or blank (one field per line, as gofmt leaves them here).
FIELDS = awk '/^type $(1) struct \{/{f=1;next} f&&/^\}/{exit} f&&!/^[[:space:]]*(\/\/|$$)/{n++} END{print n}' $(2)
loc:
	@echo "tree:                        $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | $(LOC))"
	@for d in daemon datapath client experiments; do \
		printf '%-28s %s\n' "internal/$$d:" "$$(find ./internal/$$d -name '*.go' -not -name '*_test.go' | $(LOC))"; \
	done
	@echo "internal/datapath/engine.go: $$(echo internal/datapath/engine.go | $(LOC))"
	@echo "portusd flags:               $$(grep -cE '^\s*fs\.[A-Z][A-Za-z0-9]*\(' cmd/portusd/main.go)"
	@echo "portus.ServerConfig fields:  $$($(call FIELDS,ServerConfig,portus.go))"
	@echo "daemon.Config fields:        $$($(call FIELDS,Config,internal/daemon/daemon.go))"

# Fault-injection sweep at a fixed seed: proves committed checkpoints
# survive verb errors, dropped connections, and torn flushes.
chaos:
	$(GO) run ./cmd/portus-bench chaos

# Multi-tenant scheduling sweep: 1-16 concurrent models through the fair
# scheduler, plus an overload run proving coalescing and BUSY
# backpressure never lose a committed checkpoint.
multitenant:
	$(GO) run ./cmd/portus-bench multitenant

# Sharded-tier scaling sweep: GPT-1.5B group checkpoints over 1/2/4
# storage nodes; exits nonzero if 4 nodes deliver < 2.5x the 1-node
# aggregate throughput.
scale:
	$(GO) run ./cmd/portus-bench scale

# Incremental-checkpoint sweep: GPT-1.5B at 1/5/25/100% per-iteration
# mutation rates plus an RF=2 tier drill with a mid-checkpoint node
# kill. Exits nonzero if the 1%-dirty point moves > 15% of the full
# checkpoint's fabric bytes, fails to beat the full baseline end to
# end, or any restore is not byte-identical.
delta:
	$(GO) run ./cmd/portus-bench delta

# Failover drill at a fixed seed: RF=2 over 4 storage nodes, one node
# killed mid-checkpoint; asserts zero lost committed checkpoints,
# byte-identical restore from surviving replicas, anti-entropy rebuild
# of a replacement node (reporting the virtual time from Join until
# every owner copy is DONE), and CRC detection of a corrupted replica.
failover:
	$(GO) run ./cmd/portus-bench failover

# Churn drill at a fixed seed: waves of tenants register, checkpoint,
# and delete against a namespace their cumulative demand overflows >=3x;
# asserts admission never permanently fails (only transient NO_SPACE
# retry-afters), zero committed checkpoints lost, and at least one
# online repack pass ran concurrent with live traffic.
churn:
	$(GO) run ./cmd/portus-bench churn

# Crash sweep on the 28-tensor model: a power failure after every
# persist of every scenario row (tier-1 runs the same rows on three
# tensors), invariants of DESIGN.md §6 checked at each. The first run
# only lists each row's persist count N, so a change that adds or
# removes a persist shows in the log; a failure is named
# TestSweep/<row>/k=<n> and replays with -run 'TestSweep/<row>/k=<n>$$'.
crash:
	$(GO) test ./internal/crashsweep -count=1 -full -v -run 'TestSweep/.*/^$$' | grep -E 'N=|^(ok|FAIL|panic)'
	$(GO) test ./internal/crashsweep -count=1 -full

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
