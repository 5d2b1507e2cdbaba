PYTHON ?= python
export PYTHONPATH := src

.PHONY: help lint typecheck repro-lint lint-deep test test-contracts check \
	bench perf perf-check profile

help:
	@echo "Targets:"
	@echo "  lint           ruff check (skipped with a notice if ruff is absent)"
	@echo "  typecheck      mypy --strict over src/repro (skipped if mypy is absent)"
	@echo "  repro-lint     project-specific AST lint, per-file rules (fast)"
	@echo "  lint-deep      full analyzer: graph passes R010+, 30s budget, SARIF out"
	@echo "  test           tier-1 pytest suite"
	@echo "  test-contracts tier-1 suite with runtime contracts forced on"
	@echo "  check          repro-lint + lint + typecheck + test-contracts"
	@echo "  bench          benchmark suite (pytest-benchmark)"
	@echo "  perf           replace the BENCH_PTPMINER.jsonl ledger with a fresh quick-matrix run"
	@echo "  perf-check     judge a fresh quick-matrix run against BENCH_PTPMINER.jsonl"
	@echo "  profile        profile a sparse mine; writes profile.json + profile.folded"

lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools; \
	else \
		echo "ruff not installed; skipping (pip install -e .[dev])"; \
	fi

typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy --strict src/repro; \
	else \
		echo "mypy not installed; skipping (pip install -e .[dev])"; \
	fi

repro-lint:
	$(PYTHON) -m tools.repro_lint src tests

# Deep project-graph analyzer (determinism / boundary / purity /
# coverage / suppression audit). Blocking in CI; `timeout 30` enforces
# the documented runtime budget. Also writes the SARIF report.
lint-deep:
	timeout 30 $(PYTHON) -m tools.repro_lint --deep src tools tests
	$(PYTHON) -m tools.repro_lint --deep src tools tests \
		--format sarif --output repro-lint.sarif

test:
	$(PYTHON) -m pytest -x -q

test-contracts:
	REPRO_CONTRACTS=1 $(PYTHON) -m pytest -x -q

check: repro-lint lint-deep lint typecheck test-contracts

bench:
	$(PYTHON) -m pytest benchmarks --benchmark-only

perf:
	$(PYTHON) -m repro.perf update-baseline --matrix quick

perf-check:
	$(PYTHON) -m repro.perf compare --matrix quick

profile:
	$(PYTHON) -m repro.cli generate --dataset sparse --out /tmp/profile-db.txt
	$(PYTHON) -m repro.cli mine /tmp/profile-db.txt --min-sup 0.1 --top 0 \
		--profile >/dev/null
	$(PYTHON) -m repro.obs.profile profile.json
