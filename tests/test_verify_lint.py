"""Every lint rule has a failing fixture, a passing twin, and a suppression."""

from pathlib import Path

from repro.verify.lint import LINT_RULES, run_lint

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _lint_tree(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint the tree."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return run_lint([str(tmp_path)])


def _rules(findings):
    return [f.rule for f in findings]


# -- enum-dispatch ----------------------------------------------------------


def test_enum_dict_missing_members_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/dispatch.py": (
            "HANDLERS = {\n"
            "    MsgClass.REQUEST: 1,\n"
            "    MsgClass.REPLY: 2,\n"
            "}\n"
        ),
    })
    assert _rules(findings) == ["enum-dispatch"]
    assert "INVALIDATION" in findings[0].message


def test_enum_dict_covering_all_members_is_clean(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/dispatch.py": (
            "HANDLERS = {\n"
            "    MsgClass.REQUEST: 1,\n"
            "    MsgClass.REPLY: 2,\n"
            "    MsgClass.INVALIDATION: 3,\n"
            "    MsgClass.ACKNOWLEDGEMENT: 4,\n"
            "}\n"
        ),
    })
    assert findings == []


def test_enum_chain_without_else_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/chain.py": (
            "def f(kind):\n"
            "    if kind == FaultKind.DROP:\n"
            "        return 1\n"
            "    elif kind == FaultKind.DELAY:\n"
            "        return 2\n"
        ),
    })
    assert _rules(findings) == ["enum-dispatch"]


def test_enum_chain_with_else_is_clean(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/chain.py": (
            "def f(kind):\n"
            "    if kind == FaultKind.DROP:\n"
            "        return 1\n"
            "    elif kind == FaultKind.DELAY:\n"
            "        return 2\n"
            "    else:\n"
            "        raise ValueError(kind)\n"
        ),
    })
    assert findings == []


# -- unseeded-random --------------------------------------------------------


def test_module_level_random_in_machine_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/net.py": (
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n"
        ),
    })
    assert _rules(findings) == ["unseeded-random"]


def test_seeded_random_instance_is_clean(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/net.py": (
            "import random\n"
            "def make_rng(seed):\n"
            "    return random.Random(seed)\n"
        ),
    })
    assert findings == []


def test_wall_clock_and_from_imports_are_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "core/clock.py": (
            "import time\n"
            "from random import choice\n"
            "def now():\n"
            "    return time.perf_counter()\n"
            "def pick(xs):\n"
            "    return choice(xs)\n"
        ),
    })
    assert _rules(findings) == ["wall-clock", "unseeded-random"]


def test_randomness_outside_machine_and_core_is_allowed(tmp_path):
    findings = _lint_tree(tmp_path, {
        "analysis/sampling.py": (
            "import random\n"
            "def pick():\n"
            "    return random.random()\n"
        ),
    })
    assert findings == []


# -- wall-clock -------------------------------------------------------------


def test_time_time_and_os_urandom_are_wall_clock(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/clock.py": (
            "import os\n"
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
            "def entropy():\n"
            "    return os.urandom(8)\n"
        ),
    })
    assert _rules(findings) == ["wall-clock", "wall-clock"]
    assert "time.time" in findings[0].message
    assert "os.urandom" in findings[1].message


def test_datetime_now_is_flagged_in_both_import_styles(tmp_path):
    findings = _lint_tree(tmp_path, {
        "core/stamp.py": (
            "import datetime\n"
            "from datetime import datetime as dt\n"
            "def a():\n"
            "    return datetime.datetime.now()\n"
            "def b():\n"
            "    return dt.utcnow()\n"
        ),
    })
    assert _rules(findings) == ["wall-clock", "wall-clock"]


def test_wall_clock_outside_machine_and_core_is_allowed(tmp_path):
    # obs profiling and analysis timeouts legitimately read host time
    findings = _lint_tree(tmp_path, {
        "obs/profiler.py": (
            "import time\n"
            "def tick():\n"
            "    return time.perf_counter()\n"
        ),
    })
    assert findings == []


def test_datetime_arithmetic_is_not_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/span.py": (
            "from datetime import timedelta\n"
            "def week():\n"
            "    return timedelta(days=7)\n"
        ),
    })
    assert findings == []


# -- unordered-iteration ----------------------------------------------------


def test_iterating_a_set_display_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/loop.py": (
            "def f():\n"
            "    for x in {1, 2, 3}:\n"
            "        print(x)\n"
        ),
    })
    assert _rules(findings) == ["unordered-iteration"]


def test_iterating_invalidation_targets_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/inval.py": (
            "def f(entry):\n"
            "    return [t for t in entry.invalidation_targets()]\n"
        ),
    })
    assert _rules(findings) == ["unordered-iteration"]


def test_sorted_iteration_is_clean(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/loop.py": (
            "def f(entry):\n"
            "    for t in sorted(entry.invalidation_targets()):\n"
            "        print(t)\n"
        ),
    })
    assert findings == []


# -- unregistered-scheme ----------------------------------------------------


def test_orphan_scheme_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "core/schemes.py": (
            "class GoodScheme(DirectoryScheme):\n"
            "    pass\n"
            "class OrphanScheme(DirectoryScheme):\n"
            "    pass\n"
        ),
        "core/registry.py": (
            "FACTORIES = {'good': GoodScheme}\n"
        ),
    })
    assert _rules(findings) == ["unregistered-scheme"]
    assert "OrphanScheme" in findings[0].message


def test_transitive_subclass_is_also_checked(tmp_path):
    findings = _lint_tree(tmp_path, {
        "core/schemes.py": (
            "class BaseScheme(DirectoryScheme):\n"
            "    pass\n"
            "class ChildScheme(BaseScheme):\n"
            "    pass\n"
        ),
        "core/registry.py": (
            "FACTORIES = {'base': BaseScheme}\n"
        ),
    })
    assert "ChildScheme" in " ".join(f.message for f in findings)


def test_private_helper_base_is_exempt(tmp_path):
    findings = _lint_tree(tmp_path, {
        "core/schemes.py": (
            "class _HelperScheme(DirectoryScheme):\n"
            "    pass\n"
        ),
        "core/registry.py": "FACTORIES = {}\n",
    })
    assert findings == []


# -- undeclared-stat --------------------------------------------------------

_STATS = (
    "class SimStats:\n"
    "    def __init__(self):\n"
    "        self.reads = 0\n"
)


def test_undeclared_counter_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/stats.py": _STATS,
        "machine/ctrl.py": (
            "def f(self):\n"
            "    self.stats.reads += 1\n"
            "    self.stats.bogus += 1\n"
        ),
    })
    assert _rules(findings) == ["undeclared-stat"]
    assert "bogus" in findings[0].message


# -- undeclared-obs-name ----------------------------------------------------

_OBS_REGISTRY = (
    "EVENTS = {'txn.read': 'read span', 'wb.issue': 'writeback'}\n"
    # not every fixture tree increments msg_latency; keep dead-metric out
    # of the obs-name tests' way
    "METRICS = {'msg_latency': 'x'}  # lint: ignore[dead-metric]\n"
)


def test_undeclared_event_name_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": _OBS_REGISTRY,
        "machine/hooks.py": (
            "def f(tracer):\n"
            "    tracer.emit_now('not.declared')\n"
        ),
    })
    assert _rules(findings) == ["undeclared-obs-name"]
    assert "not.declared" in findings[0].message


def test_declared_event_name_passes(tmp_path):
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": _OBS_REGISTRY,
        "machine/hooks.py": (
            "def f(tracer, now):\n"
            "    tracer.emit('txn.read', ts=now)\n"
            "    tracer.emit_now('wb.issue')\n"
        ),
    })
    assert findings == []


def test_annotated_registry_declarations_count(tmp_path):
    # the shipped registry uses annotated assignments (EVENTS: Dict[...])
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": (
            "from typing import Dict\n"
            "EVENTS: Dict[str, str] = {'txn.read': 'read span'}\n"
            "METRICS: Dict[str, str] = {}\n"
        ),
        "machine/hooks.py": (
            "def f(tracer):\n"
            "    tracer.emit_now('txn.read')\n"
        ),
    })
    assert findings == []


#: the shipped registry's shape since the tracer records flat rows: the
#: values are ``EventSpec(...)`` calls (``feeds=`` naming the histogram)
_SPEC_REGISTRY = (
    "from typing import Dict\n"
    "EVENTS: Dict[str, EventSpec] = {\n"
    "    'txn.read': EventSpec(SPAN, 'directory', ('block',), 'read span',\n"
    "                          feeds=('txn_latency.read', 'dur')),\n"
    "    'dir.inval_round': _E(INSTANT, 'directory', ('cause', 'invals'),\n"
    "                          'round', feeds=('invals_per_event.',\n"
    "                                          'invals', 'cause')),\n"
    "    'wb.issue': EventSpec(INSTANT, 'cluster', ('block',), 'writeback'),\n"
    "}\n"
    "METRICS = {'txn_latency.read': 'r', 'invals_per_event.write': 'w',\n"
    "           'invals_per_event.nb_evict': 'n'}\n"
)


def test_record_call_names_are_checked_against_spec_registry(tmp_path):
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": _SPEC_REGISTRY,
        "machine/hooks.py": (
            "def f(obs, now, home, block):\n"
            "    obs.record('txn.read', now, 5.0, home, block)\n"
            "    obs.record('wb.issue', now, None, home, block)\n"
            "    obs.record('wb.isue', now, None, home, block)\n"
            "    obs.emit_now('dir.inval_rnd')\n"
            "    scheme.record(block)\n"  # not a tracer call: no literal name
        ),
    })
    assert _rules(findings) == ["undeclared-obs-name"] * 2
    assert "wb.isue" in findings[0].message
    assert "dir.inval_rnd" in findings[1].message


def test_event_declarations_keep_the_metrics_they_feed_alive(tmp_path):
    hooks = {"machine/hooks.py": "def f():\n    pass\n"}
    assert _lint_tree(tmp_path, {"obs/registry.py": _SPEC_REGISTRY, **hooks}) == []
    unfed = _SPEC_REGISTRY.replace("feeds=('txn_latency.read', 'dur')", "feeds=None")
    findings = _lint_tree(tmp_path, {"obs/registry.py": unfed, **hooks})
    assert _rules(findings) == ["dead-metric"]
    assert "txn_latency.read" in findings[0].message


def test_undeclared_metric_name_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": _OBS_REGISTRY,
        "machine/hooks.py": (
            "def f(self, v):\n"
            "    self.metrics.histogram('bogus_latency').observe(v)\n"
        ),
    })
    assert _rules(findings) == ["undeclared-obs-name"]
    assert "bogus_latency" in findings[0].message


def test_declared_metric_name_passes(tmp_path):
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": _OBS_REGISTRY,
        "machine/hooks.py": (
            "def f(self, v):\n"
            "    self.metrics.histogram('msg_latency').observe(v)\n"
        ),
    })
    assert findings == []


def test_dynamic_obs_names_are_left_to_runtime(tmp_path):
    # f-strings cannot be checked statically; the strict tracer covers them
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": _OBS_REGISTRY,
        "machine/hooks.py": (
            "def f(tracer, kind, now):\n"
            "    tracer.emit(f'txn.{kind}', ts=now)\n"
        ),
    })
    assert findings == []


def test_obs_rule_inactive_without_registry(tmp_path):
    # fixture trees for other rules never declare obs/registry.py and
    # must not start failing because of the obs rule
    findings = _lint_tree(tmp_path, {
        "machine/hooks.py": (
            "def f(tracer):\n"
            "    tracer.emit_now('anything.goes')\n"
        ),
    })
    assert findings == []


def test_obs_name_suppression(tmp_path):
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": _OBS_REGISTRY,
        "machine/hooks.py": (
            "def f(tracer):\n"
            "    tracer.emit_now('x.y')  # lint: ignore[undeclared-obs-name]\n"
        ),
    })
    assert findings == []


# -- dead-metric ------------------------------------------------------------


def test_dead_metric_is_flagged_on_tree_wide_runs(tmp_path):
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": (
            "METRICS = {'msg_latency': 'used', 'dead_gauge': 'never set'}\n"
        ),
        "machine/hooks.py": (
            "def f(self, v):\n"
            "    self.metrics.histogram('msg_latency').observe(v)\n"
        ),
    })
    assert _rules(findings) == ["dead-metric"]
    assert "dead_gauge" in findings[0].message


def test_fstring_prefix_keeps_metric_family_alive(tmp_path):
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": (
            "METRICS = {'txn_latency.read': 'r', 'txn_latency.write': 'w'}\n"
        ),
        "machine/hooks.py": (
            "def f(self, kind, v):\n"
            "    self.metrics.histogram(f'txn_latency.{kind}').observe(v)\n"
        ),
    })
    assert findings == []


def test_dead_metric_skipped_without_machine_layer(tmp_path):
    # a partial run cannot see the increment sites; stay quiet
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": "METRICS = {'orphan': 'x'}\n",
    })
    assert findings == []


def test_dead_metric_suppression_on_declaration_line(tmp_path):
    findings = _lint_tree(tmp_path, {
        "obs/registry.py": (
            "METRICS = {\n"
            "    'reserved': 'future',  # lint: ignore[dead-metric]\n"
            "}\n"
        ),
        "machine/hooks.py": "def f():\n    pass\n",
    })
    assert findings == []


# -- suppression and the shipped tree ---------------------------------------


def test_inline_suppression_by_rule_name(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/net.py": (
            "import random\n"
            "def jitter():\n"
            "    return random.random()  # lint: ignore[unseeded-random]\n"
        ),
    })
    assert findings == []


def test_bare_suppression_covers_all_rules(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/loop.py": (
            "def f():\n"
            "    for x in {1, 2}:  # lint: ignore\n"
            "        print(x)\n"
        ),
    })
    assert findings == []


def test_suppressing_one_rule_keeps_the_other(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/loop.py": (
            "def f():\n"
            "    for x in {1, 2}:  # lint: ignore[unseeded-random]\n"
            "        print(x)\n"
        ),
    })
    assert _rules(findings) == ["unordered-iteration"]


def test_ignore_is_line_targeted_not_file_wide(tmp_path):
    # the annotation on line 2's violation must not silence line 4's
    findings = _lint_tree(tmp_path, {
        "machine/loop.py": (
            "def f():\n"
            "    for x in {1, 2}:  # lint: ignore[unordered-iteration]\n"
            "        print(x)\n"
            "    for y in {3, 4}:\n"
            "        print(y)\n"
        ),
    })
    assert [(f.rule, f.line) for f in findings] == [("unordered-iteration", 4)]


def test_ignore_file_suffix_suppresses_rule_file_wide(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/loop.py": (
            "# lint: ignore-file[unordered-iteration]\n"
            "def f():\n"
            "    for x in {1, 2}:\n"
            "        print(x)\n"
            "    for y in {3, 4}:\n"
            "        print(y)\n"
        ),
    })
    assert findings == []


def test_bare_ignore_file_suppresses_everything(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/loop.py": (
            "# lint: ignore-file\n"
            "import random\n"
            "def f():\n"
            "    for x in {1, 2}:\n"
            "        print(random.random())\n"
        ),
    })
    assert findings == []


def test_ignore_file_only_covers_the_named_rule(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/loop.py": (
            "# lint: ignore-file[unordered-iteration]\n"
            "import random\n"
            "def f():\n"
            "    for x in {1, 2}:\n"
            "        print(random.random())\n"
        ),
    })
    assert _rules(findings) == ["unseeded-random"]


def test_syntax_error_becomes_parse_error_finding(tmp_path):
    findings = _lint_tree(tmp_path, {"machine/bad.py": "def broken(:\n"})
    assert _rules(findings) == ["parse-error"]


def test_every_rule_has_a_catalog_entry():
    assert set(LINT_RULES) == {
        "enum-dispatch",
        "unseeded-random",
        "wall-clock",
        "unordered-iteration",
        "unregistered-scheme",
        "undeclared-stat",
        "undeclared-obs-name",
        "dead-metric",
        "span-leak",
        "unpicklable-continuation",
    }


def test_shipped_tree_is_clean():
    assert run_lint([str(REPO_SRC)]) == []


# -- span-leak ---------------------------------------------------------------


def test_begin_without_end_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/directory.py": (
            "def service(self, obs):\n"
            "    obs.emit('dir.service', ts=1.0, kind='begin')\n"
        ),
    })
    assert _rules(findings) == ["span-leak"]
    assert "dir.service" in findings[0].message


def test_begin_with_matching_end_is_clean(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/directory.py": (
            "def service(self, obs):\n"
            "    obs.emit('dir.service', ts=1.0, kind='begin')\n"
            "    obs.emit('dir.service', ts=9.0, kind='end')\n"
        ),
    })
    assert findings == []


def test_end_may_live_in_another_function_of_the_module(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/directory.py": (
            "def start(self, obs):\n"
            "    obs.emit('dir.service', ts=1.0, kind='begin')\n"
            "\n"
            "def finish(self, obs):\n"
            "    obs.emit('dir.service', ts=9.0, kind='end')\n"
        ),
    })
    assert findings == []


def test_mismatched_span_names_are_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/network.py": (
            "def f(obs):\n"
            "    obs.emit('net.msg', ts=1.0, kind='begin')\n"
            "    obs.emit('net.fault', ts=2.0, kind='end')\n"
        ),
    })
    assert _rules(findings) == ["span-leak"]
    assert "net.msg" in findings[0].message


def test_kind_constant_name_forms_are_understood(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/cache.py": (
            "from repro.obs.tracer import BEGIN, END\n"
            "import repro.obs.tracer as tracer\n"
            "def f(obs):\n"
            "    obs.emit('cache.inval', ts=1.0, kind=BEGIN)\n"
            "    obs.emit('cache.inval', ts=2.0, kind=tracer.END)\n"
            "    obs.emit('wb.issue', ts=3.0, kind=BEGIN)\n"
        ),
    })
    assert _rules(findings) == ["span-leak"]
    assert "wb.issue" in findings[0].message


def test_complete_spans_are_not_split_halves(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/cache.py": (
            "def f(obs):\n"
            "    obs.emit('txn.read', ts=1.0, dur=5.0, kind='span')\n"
            "    obs.emit_now('wb.issue')\n"
        ),
    })
    assert findings == []


def test_span_leak_only_polices_the_machine_layer(tmp_path):
    findings = _lint_tree(tmp_path, {
        "analysis/report.py": (
            "def f(obs):\n"
            "    obs.emit('dir.service', ts=1.0, kind='begin')\n"
        ),
    })
    assert findings == []


def test_span_leak_suppression(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/directory.py": (
            "def service(self, obs):\n"
            "    obs.emit('dir.service', ts=1.0, kind='begin')"
            "  # lint: ignore[span-leak]\n"
        ),
    })
    assert findings == []


# -- unpicklable-continuation -----------------------------------------------


def test_lambda_continuation_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/network.py": (
            "def send(self, msg):\n"
            "    self.events.after(1.0, lambda: self.deliver(msg))\n"
        ),
    })
    assert _rules(findings) == ["unpicklable-continuation"]
    assert "lambda" in findings[0].message
    assert "CONTINUATIONS" in findings[0].message


def test_nested_function_continuation_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/directory.py": (
            "def service(self):\n"
            "    def finish():\n"
            "        self.done()\n"
            "    self.events.at(2.0, finish)\n"
        ),
    })
    assert _rules(findings) == ["unpicklable-continuation"]
    assert "finish" in findings[0].message


def test_partial_over_lambda_is_flagged(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/cluster.py": (
            "def kick(self, events):\n"
            "    events.after(1.0, partial(lambda m: m.step(), self))\n"
        ),
    })
    assert _rules(findings) == ["unpicklable-continuation"]


def test_bound_method_continuation_is_clean(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/network.py": (
            "def send(self, msg):\n"
            "    self.events.after(1.0, self.deliver, msg)\n"
            "    self.events.at(2.0, partial(self.deliver, msg))\n"
        ),
    })
    assert findings == []


def test_continuation_rule_only_polices_the_machine_layer(tmp_path):
    findings = _lint_tree(tmp_path, {
        "analysis/replay.py": (
            "def f(events):\n"
            "    events.after(1.0, lambda: None)\n"
        ),
    })
    assert findings == []


def test_non_event_queue_receivers_are_out_of_scope(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/scheduler.py": (
            "def f(calendar):\n"
            "    calendar.at(1.0, lambda: None)\n"
        ),
    })
    assert findings == []


def test_continuation_suppression(tmp_path):
    findings = _lint_tree(tmp_path, {
        "machine/network.py": (
            "def send(self, msg):\n"
            "    self.events.after(1.0, lambda: None)"
            "  # lint: ignore[unpicklable-continuation]\n"
        ),
    })
    assert findings == []
