# Convenience targets for the reproduction.

.PHONY: install test bench bench-selftest chaos chaos-ckpt strict-smoke examples results loc clean

# parallel workers for the `results` regeneration (see docs/parallelism.md)
JOBS ?= 1
# optional content-addressed result cache directory ("" = no caching)
CACHE_DIR ?=

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# the repo benchmark's own tests (~50 s, outside tier-1): they call what
# bench/micro.py and bench/e2e.py call in src/, so a src/ change that
# breaks the benchmark is caught here rather than by the benchmark driver
bench-selftest:
	python3 -m pytest bench -q

# resilience smoke: a sweep under seeded fault injection (killed/hung/
# failing workers) must complete with results identical to a clean run
chaos:
	PYTHONPATH=src python -m repro sweep --app MP3D --procs 8 --scale 0.5 \
	    --axis scheme=full,Dir2B,Dir1NB --axis sparse_size_factor=none,1.0 \
	    --jobs 2 --no-cache --chaos 7 --timeout 20 --report sweep_report.json

# checkpoint-resume smoke: chaos additionally SIGKILLs workers right
# after their first mid-run snapshot; retries must *resume* from the
# snapshot (fewer events re-simulated) with byte-identical results
chaos-ckpt:
	rm -rf .chaos-ckpt-cache
	PYTHONPATH=src python -m repro sweep --app MP3D --procs 8 --scale 0.5 \
	    --axis scheme=full,Dir2B,Dir1NB --axis sparse_size_factor=none,1.0 \
	    --jobs 2 --cache-dir .chaos-ckpt-cache --chaos 7 --chaos-midkill 1.0 \
	    --ckpt-interval 400 --timeout 20 --report sweep_ckpt_report.json
	PYTHONPATH=src python -c "import json; c = json.load(open('sweep_ckpt_report.json'))['counts']; assert c['resumed_from_checkpoint'] >= 1 and c['events_saved'] > 0, c; print('chaos-ckpt:', c['resumed_from_checkpoint'], 'points resumed,', c['events_saved'], 'events saved')"

# strict-invariant smoke: the four paper apps on the 32-cluster machine,
# every transaction's disturbed blocks audited, first violation raises;
# then an overflow-cache run with and without --strict, which must agree
strict-smoke:
	for app in MP3D LU DWF LocusRoute; do \
	    PYTHONPATH=src python -m repro run --app $$app --procs 32 \
	        --strict --check || exit 1; \
	done
	# cluster masks wider than a machine word: MP3D on 256 clusters
	PYTHONPATH=src python -m repro run --app MP3D --procs 256 \
	    --scheme Dir3CV8 --strict --check
	# the checker observes, it does not steer: on a scheme whose reads once
	# had side effects (the overflow cache's shared LRU) the strict run
	# must report the plain run's result
	run="python -m repro run --app MP3D --procs 32 --scheme Dir1OF2"; \
	    pick="^(execution time|total messages)"; \
	    plain=$$(PYTHONPATH=src $$run | grep -E "$$pick") && \
	    strict=$$(PYTHONPATH=src $$run --strict | grep -E "$$pick") && \
	    echo "Dir1OF2 plain:"; echo "$$plain"; echo "Dir1OF2 strict:"; \
	    echo "$$strict"; [ -n "$$plain" ] && [ "$$plain" = "$$strict" ]

# regenerate every table/figure report (and results/*.json);
# e.g.  make results JOBS=4 CACHE_DIR=.repro-cache
results:
	for b in benchmarks/bench_fig*.py benchmarks/bench_table*.py \
	         benchmarks/bench_ablation_*.py; do \
	    echo "== $$b =="; \
	    PYTHONPATH=src python $$b --jobs $(JOBS) \
	        $(if $(CACHE_DIR),--cache-dir $(CACHE_DIR),) || exit 1; \
	done

# net src/ size is a tracked number (ROADMAP): lines per package, the
# total, then the five largest modules
loc:
	@for d in src/repro src/repro/*/; do \
	    printf '%-26s %6d\n' "$${d%/}/*.py" $$(cat $$d/*.py | wc -l); \
	done
	@printf '%-26s %6d\n' total $$(find src/repro -name '*.py' | xargs cat | wc -l)
	@echo 'largest modules:'
	@find src/repro -name '*.py' | xargs wc -l | grep -v ' total$$' | sort -rn \
	    | head -5 | awk '{ printf "  %-36s %6d\n", $$2, $$1 }'

examples:
	for e in examples/*.py; do echo "== $$e =="; python $$e || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
