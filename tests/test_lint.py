"""The repro-lint framework, the rule catalogue, and the CLI.

Each rule gets one triggering and one passing fixture (the ISSUE's
acceptance bar), the framework's suppression/skip machinery is covered,
and the whole ``src`` tree must lint clean — the same gate CI enforces.
"""

from __future__ import annotations

import io
import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Project,
    SourceModule,
    all_rules,
    lint_paths,
    lint_project,
    lint_source,
)
from repro.analysis.lint.cli import main as lint_main

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def codes(findings) -> list[str]:
    return [f.code for f in findings]


class TestRuleCatalogue:
    def test_at_least_eight_rules(self):
        assert len(all_rules()) >= 8

    def test_codes_are_unique_and_well_formed(self):
        seen = [rule.code for rule in all_rules()]
        assert len(seen) == len(set(seen))
        for code in seen:
            assert re.fullmatch(r"RPR\d{3}", code)

    def test_every_rule_has_name_and_description(self):
        for rule in all_rules():
            assert rule.name
            assert rule.description


class TestFramework:
    def test_suppression_comment_silences_one_code(self):
        source = (
            "def f(net):\n"
            "    net.alive[0] = False  # repro-lint: ignore[RPR001]\n"
        )
        assert lint_source(source, select={"RPR001"}) == []

    def test_suppression_is_per_code(self):
        source = (
            "def f(net):\n"
            "    net.alive[0] = False  # repro-lint: ignore[RPR005]\n"
        )
        assert codes(lint_source(source, select={"RPR001"})) == ["RPR001"]

    def test_skip_file_pragma(self):
        source = (
            "# repro-lint: skip-file\n"
            "def f(net):\n"
            "    net.alive[0] = False\n"
        )
        assert lint_source(source) == []

    def test_findings_sorted_and_located(self):
        source = (
            "import warnings\n"
            "def f(net):\n"
            "    warnings.warn('x')\n"
            "    net.alive[0] = False\n"
        )
        findings = lint_source(source, path="mod.py")
        assert [f.line for f in findings] == sorted(f.line for f in findings)
        assert all(f.path == "mod.py" for f in findings)
        rendered = findings[0].render()
        assert rendered.startswith("mod.py:") and findings[0].code in rendered

    def test_unparseable_source_raises(self):
        with pytest.raises(SyntaxError):
            lint_source("def f(:\n")


class TestFrozenViewWriteRPR001:
    def test_trigger_unbracketed_write(self):
        source = "def f(net):\n    net.matrix[0, 1] = False\n"
        assert codes(lint_source(source, select={"RPR001"})) == ["RPR001"]

    def test_trigger_inplace_method(self):
        source = "def f(net):\n    net.alive.fill(False)\n"
        assert codes(lint_source(source, select={"RPR001"})) == ["RPR001"]

    def test_pass_inside_materialize_bracket(self):
        source = (
            "def f(net):\n"
            "    net.materialize_bool()\n"
            "    try:\n"
            "        net.alive[0] = False\n"
            "    finally:\n"
            "        net.repack()\n"
        )
        assert lint_source(source, select={"RPR001"}) == []

    def test_pass_nested_function_inherits_bracket(self):
        source = (
            "def f(net):\n"
            "    net.materialize_bool()\n"
            "    try:\n"
            "        def sync():\n"
            "            net.alive[0] = False\n"
            "        sync()\n"
            "    finally:\n"
            "        net.repack()\n"
        )
        assert lint_source(source, select={"RPR001"}) == []

    def test_pass_duck_typed_owner_class(self):
        source = (
            "class SyntheticNetwork:\n"
            "    def __init__(self, n):\n"
            "        self.alive = make(n)\n"
            "        self.matrix = make2(n)\n"
            "    def kill(self, i):\n"
            "        self.alive[i] = False\n"
            "        self.matrix[i, :] = False\n"
        )
        assert lint_source(source, select={"RPR001"}) == []

    def test_pass_network_py_owns_the_representation(self):
        source = "def f(self):\n    self.matrix[0, 1] = False\n"
        assert (
            lint_source(source, path="src/repro/network/network.py", select={"RPR001"})
            == []
        )


class TestMaterializeRepackRPR002:
    def test_trigger_materialize_without_repack(self):
        source = "def run(net):\n    net.materialize_bool()\n"
        findings = lint_source(source, select={"RPR002"})
        assert codes(findings) == ["RPR002"]
        assert "without a matching repack" in findings[0].message

    def test_trigger_repack_not_in_finally(self):
        source = (
            "def run(net):\n"
            "    net.materialize_bool()\n"
            "    work(net)\n"
            "    net.repack()\n"
        )
        findings = lint_source(source, select={"RPR002"})
        assert codes(findings) == ["RPR002"]
        assert "try/finally" in findings[0].message

    def test_trigger_repack_without_materialize(self):
        source = "def run(net):\n    net.repack()\n"
        findings = lint_source(source, select={"RPR002"})
        assert codes(findings) == ["RPR002"]
        assert "without a visible materialize_bool" in findings[0].message

    def test_pass_balanced_finally_bracket(self):
        source = (
            "def run(net):\n"
            "    net.materialize_bool()\n"
            "    try:\n"
            "        work(net)\n"
            "    finally:\n"
            "        net.repack()\n"
        )
        assert lint_source(source, select={"RPR002"}) == []


class TestInplaceOnSharedRPR003:
    def test_trigger_augassign_on_accessor_result(self):
        source = (
            "def f(template, compiled, other):\n"
            "    masks = template.vector_masks(compiled)\n"
            "    masks &= other\n"
        )
        assert codes(lint_source(source, select={"RPR003"})) == ["RPR003"]

    def test_trigger_out_kwarg_targets_shared(self):
        source = (
            "import numpy as np\n"
            "def f(template, other):\n"
            "    base = template.base_matrix\n"
            "    np.logical_and(base, other, out=base)\n"
        )
        assert codes(lint_source(source, select={"RPR003"})) == ["RPR003"]

    def test_pass_copy_breaks_the_taint(self):
        source = (
            "def f(template, compiled, other):\n"
            "    masks = template.vector_masks(compiled).copy\n"
            "    masks &= other\n"
        )
        assert lint_source(source, select={"RPR003"}) == []

    def test_pass_scalar_attribute_reads_do_not_taint(self):
        source = (
            "def nbytes(self):\n"
            "    total = self.base_bits.nbytes + self.canbe_array.nbytes\n"
            "    total += self.base_bits.nbytes\n"
            "    return total\n"
        )
        assert lint_source(source, select={"RPR003"}) == []


class TestNestedLockRPR004:
    def test_trigger_nested_acquisition_without_order(self):
        source = (
            "def f(self):\n"
            "    with self._lock:\n"
            "        with self._other_lock:\n"
            "            pass\n"
        )
        assert codes(lint_source(source, select={"RPR004"})) == ["RPR004"]

    def test_pass_declared_lock_order(self):
        source = (
            "LOCK_ORDER = ('_lock', '_other_lock')\n"
            "def f(self):\n"
            "    with self._lock:\n"
            "        with self._other_lock:\n"
            "            pass\n"
        )
        assert lint_source(source, select={"RPR004"}) == []

    def test_pass_sequential_acquisition(self):
        source = (
            "def f(self):\n"
            "    with self._lock:\n"
            "        pass\n"
            "    with self._other_lock:\n"
            "        pass\n"
        )
        assert lint_source(source, select={"RPR004"}) == []


class TestWarnStacklevelRPR005:
    def test_trigger_missing_stacklevel(self):
        source = "import warnings\ndef f():\n    warnings.warn('careful')\n"
        assert codes(lint_source(source, select={"RPR005"})) == ["RPR005"]

    def test_trigger_bare_imported_warn(self):
        source = "from warnings import warn\ndef f():\n    warn('careful')\n"
        assert codes(lint_source(source, select={"RPR005"})) == ["RPR005"]

    def test_pass_with_stacklevel(self):
        source = "import warnings\ndef f():\n    warnings.warn('careful', stacklevel=2)\n"
        assert lint_source(source, select={"RPR005"}) == []


class TestKernelWallclockRPR006:
    def test_trigger_perf_counter_in_engines(self):
        source = "import time\ndef run():\n    t = time.perf_counter()\n"
        findings = lint_source(
            source, path="src/repro/engines/fast.py", select={"RPR006"}
        )
        assert codes(findings) == ["RPR006"]

    def test_trigger_from_import_in_mesh(self):
        source = "from time import monotonic\ndef run():\n    return monotonic()\n"
        findings = lint_source(source, path="src/repro/mesh/sim.py", select={"RPR006"})
        assert codes(findings) == ["RPR006"]

    def test_pass_outside_kernel_dirs(self):
        source = "import time\ndef run():\n    t = time.perf_counter()\n"
        assert (
            lint_source(source, path="src/repro/pipeline/session.py", select={"RPR006"})
            == []
        )

    def test_pass_timing_module_is_exempt(self):
        source = "import time\ndef now():\n    return time.perf_counter()\n"
        assert (
            lint_source(source, path="src/repro/parsec/timing.py", select={"RPR006"})
            == []
        )


class TestEngineContractRPR007:
    REGISTRY_PATH = "src/repro/engines/registry.py"

    def _project(self, engine_source: str) -> Project:
        registry_source = (
            "from repro.engines.custom import CustomEngine\n"
            "_REGISTRY = {}\n"
            "_REGISTRY.setdefault('custom', CustomEngine)\n"
        )
        return Project(
            [
                SourceModule(Path(self.REGISTRY_PATH), registry_source),
                SourceModule(Path("src/repro/engines/custom.py"), engine_source),
            ]
        )

    def test_trigger_missing_contract(self):
        project = self._project(
            "class CustomEngine:\n"
            "    def run(self, network, compiled=None):\n"
            "        return None\n"
        )
        findings = lint_project(project, select={"RPR007"})
        assert codes(findings) == ["RPR007"]
        message = findings[0].message
        assert "filter_limit" in message and "'name'" in message

    def test_pass_full_contract(self):
        project = self._project(
            "class CustomEngine:\n"
            "    name = 'custom'\n"
            "    def run(self, network, *, compiled=None, filter_limit=None, trace=None):\n"
            "        return None\n"
        )
        assert lint_project(project, select={"RPR007"}) == []


class TestSilentExceptRPR008:
    def test_trigger_bare_except(self):
        source = "def f():\n    try:\n        g()\n    except:\n        pass\n"
        assert codes(lint_source(source, select={"RPR008"})) == ["RPR008"]

    def test_trigger_swallowing_broad_except(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert codes(lint_source(source, select={"RPR008"})) == ["RPR008"]

    def test_pass_broad_except_that_handles(self):
        source = (
            "def f(future):\n"
            "    try:\n"
            "        g()\n"
            "    except BaseException as error:\n"
            "        future.set_exception(error)\n"
        )
        assert lint_source(source, select={"RPR008"}) == []

    def test_pass_narrow_swallow(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except KeyError:\n"
            "        pass\n"
        )
        assert lint_source(source, select={"RPR008"}) == []


class TestThawFrozenRPR009:
    def test_trigger_setflags_write_true(self):
        source = "def f(arr):\n    arr.setflags(write=True)\n"
        assert codes(lint_source(source, select={"RPR009"})) == ["RPR009"]

    def test_pass_freezing_is_fine(self):
        source = "def f(arr):\n    arr.setflags(write=False)\n"
        assert lint_source(source, select={"RPR009"}) == []


class TestWriteThroughAttachedRPR010:
    def test_trigger_item_write_through_attach_result(self):
        source = (
            "def f(handle, grammar, compiled):\n"
            "    template, shm = attach_template(handle, grammar, compiled)\n"
            "    template.base_bits[0, 0] = 0\n"
        )
        assert codes(lint_source(source, select={"RPR010"})) == ["RPR010"]

    def test_trigger_augassign_through_tuple_entry(self):
        source = (
            "def f(handle, grammar, compiled, mask):\n"
            "    entry = attach_template(handle, grammar, compiled)\n"
            "    entry[0].base_bits &= mask\n"
        )
        assert codes(lint_source(source, select={"RPR010"})) == ["RPR010"]

    def test_trigger_out_kwarg_targets_attached(self):
        source = (
            "import numpy as np\n"
            "def f(store, handle, other):\n"
            "    view = store.attach(handle)\n"
            "    np.bitwise_and(view, other, out=view)\n"
        )
        assert codes(lint_source(source, select={"RPR010"})) == ["RPR010"]

    def test_pass_reads_and_copies(self):
        source = (
            "def f(handle, grammar, compiled, mask):\n"
            "    template, shm = attach_template(handle, grammar, compiled)\n"
            "    network = template.bind(mask)\n"
            "    scratch = template.base_bits.copy()\n"
            "    scratch &= mask\n"
            "    return network, template.nbytes()\n"
        )
        assert lint_source(source, select={"RPR010"}) == []

    def test_pass_unrelated_writes(self):
        source = (
            "def f(handle, grammar, compiled, buffer):\n"
            "    entry = attach_template(handle, grammar, compiled)\n"
            "    buffer[0] = entry[0].nv\n"
        )
        assert lint_source(source, select={"RPR010"}) == []


class TestExtendMustNotThawRPR011:
    def test_trigger_item_write_to_predecessor_array(self):
        source = (
            "def extend_from(prev, template, sentence):\n"
            "    prev.alive_bits[0] = 0\n"
        )
        assert codes(lint_source(source, select={"RPR011"})) == ["RPR011"]

    def test_trigger_augassign_through_alias_chain(self):
        source = (
            "def extend(self, category_set):\n"
            "    bits = self.base_bits\n"
            "    bits &= 0\n"
        )
        assert codes(lint_source(source, select={"RPR011"})) == ["RPR011"]

    def test_trigger_out_kwarg_and_view_laundering(self):
        source = (
            "import numpy as np\n"
            "def _extend_masks(self, prefix, compiled):\n"
            "    rows = prefix.matrix_bits.view()\n"
            "    np.bitwise_or(rows, rows, out=rows)\n"
        )
        assert codes(lint_source(source, select={"RPR011"})) == ["RPR011"]

    def test_pass_scatter_into_fresh_arrays(self):
        source = (
            "import numpy as np\n"
            "def extend_from(prev, template, sentence):\n"
            "    network = template.bind(sentence)\n"
            "    base = np.zeros((template.nv, template.nv), dtype=bool)\n"
            "    base[prev.prefix_map] = prev.alive_bits\n"
            "    network.alive_bits = base\n"
            "    network.matrix_bits[0] = 0\n"
            "    return network\n"
        )
        assert lint_source(source, select={"RPR011"}) == []

    def test_pass_outside_extend_methods(self):
        source = (
            "def apply(prev):\n"
            "    prev.alive_bits[0] = 0\n"
        )
        assert lint_source(source, select={"RPR011"}) == []


class TestSocketLifecycleRPR012:
    CLUSTER = "src/repro/cluster/conn.py"

    def test_trigger_assigned_socket_never_closed(self):
        source = (
            "import asyncio\n"
            "async def connect(host, port):\n"
            "    reader, writer = await asyncio.open_connection(host, port)\n"
            "    return reader\n"
        )
        findings = lint_source(source, path=self.CLUSTER, select={"RPR012"})
        assert codes(findings) == ["RPR012"]

    def test_trigger_bare_server_call(self):
        source = (
            "import asyncio\n"
            "async def serve(handler, host, port):\n"
            "    await asyncio.start_server(handler, host, port)\n"
        )
        findings = lint_source(source, path=self.CLUSTER, select={"RPR012"})
        assert codes(findings) == ["RPR012"]

    def test_pass_context_managed_socket(self):
        source = (
            "import socket\n"
            "def probe(address):\n"
            "    with socket.create_connection(address) as sock:\n"
            "        return sock.recv(4)\n"
        )
        assert lint_source(source, path=self.CLUSTER, select={"RPR012"}) == []

    def test_pass_names_closed_in_function(self):
        source = (
            "import asyncio\n"
            "async def connect(host, port):\n"
            "    reader, writer = await asyncio.open_connection(host, port)\n"
            "    try:\n"
            "        return await reader.read(4)\n"
            "    finally:\n"
            "        writer.close()\n"
            "        await writer.wait_closed()\n"
        )
        assert lint_source(source, path=self.CLUSTER, select={"RPR012"}) == []

    def test_pass_self_attribute_closed_elsewhere_in_class(self):
        source = (
            "import asyncio\n"
            "class Server:\n"
            "    async def start(self, host, port):\n"
            "        self._server = await asyncio.start_server(None, host, port)\n"
            "    async def stop(self):\n"
            "        self._server.close()\n"
            "        await self._server.wait_closed()\n"
        )
        assert lint_source(source, path=self.CLUSTER, select={"RPR012"}) == []

    def test_pass_handed_to_lifecycle_registrar(self):
        source = (
            "import asyncio\n"
            "async def connect(self, host, port):\n"
            "    reader, writer = await asyncio.open_connection(host, port)\n"
            "    self._register_socket(reader, writer)\n"
        )
        assert lint_source(source, path=self.CLUSTER, select={"RPR012"}) == []

    def test_rule_is_scoped_to_the_cluster_package(self):
        source = (
            "import asyncio\n"
            "async def connect(host, port):\n"
            "    reader, writer = await asyncio.open_connection(host, port)\n"
            "    return reader\n"
        )
        outside = lint_source(source, path="src/repro/serve/conn.py", select={"RPR012"})
        assert outside == []


class TestKernelBitArithRPR013:
    OUTSIDE = "src/repro/serve/metrics.py"

    def test_trigger_np_bitwise_outside_kernels(self):
        source = (
            "import numpy as np\n"
            "def delta(a, b):\n"
            "    return np.bitwise_and(a, np.bitwise_not(b))\n"
        )
        findings = lint_source(source, path=self.OUTSIDE, select={"RPR013"})
        assert codes(findings) == ["RPR013"]
        assert "bitwise_and" in findings[0].message

    def test_trigger_unpackbits_and_ufunc_method_chain(self):
        source = (
            "import numpy as np\n"
            "def scatter(bytes_, offs, masks):\n"
            "    np.bitwise_or.at(bytes_, offs, masks)\n"
            "    return np.unpackbits(bytes_, bitorder='little')\n"
        )
        findings = lint_source(source, path=self.OUTSIDE, select={"RPR013"})
        assert sorted(codes(findings)) == ["RPR013", "RPR013"]

    def test_trigger_from_import_alias(self):
        source = (
            "from numpy import packbits as pb\n"
            "def pack(rows):\n"
            "    return pb(rows, axis=1, bitorder='little')\n"
        )
        findings = lint_source(source, path=self.OUTSIDE, select={"RPR013"})
        assert codes(findings) == ["RPR013"]

    def test_pass_inside_kernels_package(self):
        source = (
            "import numpy as np\n"
            "def bmm_accumulate(out, table, a8, t):\n"
            "    np.bitwise_or(out, table[a8[:, t]], out=out)\n"
        )
        assert (
            lint_source(source, path="src/repro/kernels/bmm.py", select={"RPR013"})
            == []
        )

    def test_pass_inside_bitset_layout_layer(self):
        source = (
            "import numpy as np\n"
            "def pack_rows(rows):\n"
            "    return np.packbits(rows, axis=-1, bitorder='little')\n"
        )
        assert (
            lint_source(
                source, path="src/repro/network/bitset.py", select={"RPR013"}
            )
            == []
        )

    def test_pass_non_bit_numpy_calls_outside(self):
        source = (
            "import numpy as np\n"
            "def stats(a, b):\n"
            "    return np.logical_and(a, b).sum() + np.count_nonzero(a)\n"
        )
        assert lint_source(source, path=self.OUTSIDE, select={"RPR013"}) == []


def cluster_fixture(body: str) -> list:
    """Lint *body* as a ``repro.cluster`` module (RPR015's scope)."""
    return lint_source(body, path="src/repro/cluster/pump.py", select={"RPR015"})


class TestCrossModuleLockCycleRPR014:
    CYCLE_A = (
        "src/repro/serve/a.py",
        "import threading\n"
        "from repro.serve.b import B\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.b = B()\n"
        "    def outer(self):\n"
        "        with self._lock:\n"
        "            self.b.inner()\n"
        "    def poke(self):\n"
        "        with self._lock:\n"
        "            pass\n",
    )
    CYCLE_B = (
        "src/repro/serve/b.py",
        "import threading\n"
        "from repro.serve.a import A\n"
        "class B:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "    def inner(self):\n"
        "        with self._lock:\n"
        "            pass\n"
        "    def back(self, a: A):\n"
        "        with self._lock:\n"
        "            a.poke()\n",
    )

    @staticmethod
    def _project(*files):
        return Project([SourceModule(Path(rel), source) for rel, source in files])

    def test_trigger_interprocedural_cycle(self):
        findings = lint_project(
            self._project(self.CYCLE_A, self.CYCLE_B), select={"RPR014"}
        )
        assert codes(findings) == ["RPR014"]
        message = findings[0].message
        assert "lock-order cycle" in message
        assert "A._lock" in message and "B._lock" in message

    def test_pass_one_directional_hierarchy(self):
        findings = lint_project(self._project(self.CYCLE_A), select={"RPR014"})
        assert findings == []

    def test_trigger_conflicting_declarations(self):
        one = (
            "src/repro/serve/m1.py",
            "import threading\n"
            "alpha_lock = threading.Lock()\n"
            "beta_lock = threading.Lock()\n"
            "LOCK_ORDER = ('alpha_lock', 'beta_lock')\n",
        )
        # The second module declares the same two locks in reverse.
        two = (
            "src/repro/serve/m2.py",
            "LOCK_ORDER = ('m1.beta_lock', 'm1.alpha_lock')\n",
        )
        findings = lint_project(self._project(one, two), select={"RPR014"})
        assert codes(findings) == ["RPR014"]
        assert "declarations disagree" in findings[0].message

    def test_trigger_code_contradicts_declaration(self):
        module = (
            "src/repro/serve/m.py",
            "import threading\n"
            "alpha_lock = threading.Lock()\n"
            "beta_lock = threading.Lock()\n"
            "LOCK_ORDER = ('beta_lock', 'alpha_lock')\n"
            "def nest():\n"
            "    with alpha_lock:\n"
            "        with beta_lock:\n"
            "            pass\n",
        )
        findings = lint_project(self._project(module), select={"RPR014"})
        assert codes(findings) == ["RPR014"]
        assert "contradicts the declared global order" in findings[0].message

    def test_pass_code_matching_declaration(self):
        module = (
            "src/repro/serve/m.py",
            "import threading\n"
            "alpha_lock = threading.Lock()\n"
            "beta_lock = threading.Lock()\n"
            "LOCK_ORDER = ('alpha_lock', 'beta_lock')\n"
            "def nest():\n"
            "    with alpha_lock:\n"
            "        with beta_lock:\n"
            "            pass\n",
        )
        assert lint_project(self._project(module), select={"RPR014"}) == []


class TestBlockingInAsyncRPR015:
    def test_trigger_sleep_behind_a_helper(self):
        findings = cluster_fixture(
            "import time\n"
            "async def pump():\n"
            "    step()\n"
            "def step():\n"
            "    time.sleep(0.1)\n"
        )
        assert codes(findings) == ["RPR015"]
        message = findings[0].message
        assert "time.sleep" in message and "pump" in message

    def test_trigger_unresolved_socket_recv(self):
        findings = cluster_fixture(
            "async def pump(sock):\n"
            "    data = sock.recv(4)\n"
            "    return data\n"
        )
        assert codes(findings) == ["RPR015"]
        assert "socket I/O" in findings[0].message

    def test_pass_executor_wrapped_work(self):
        findings = cluster_fixture(
            "import asyncio\n"
            "import time\n"
            "async def pump():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, lambda: time.sleep(0.1))\n"
        )
        assert findings == []

    def test_pass_awaited_primitive(self):
        findings = cluster_fixture(
            "async def pump(lock):\n"
            "    await lock.acquire()\n"
        )
        assert findings == []

    def test_pass_outside_the_cluster_package(self):
        findings = lint_source(
            "import time\nasync def pump():\n    time.sleep(0.1)\n",
            path="src/repro/serve/pump.py",
            select={"RPR015"},
        )
        assert findings == []


class TestEscapingFrozenRefRPR016:
    def test_trigger_mutation_of_returned_frozen_ref(self):
        source = (
            "def get_masks(template, compiled):\n"
            "    masks = template.vector_masks(compiled)\n"
            "    return masks\n"
            "def consumer(template, compiled, other):\n"
            "    m = get_masks(template, compiled)\n"
            "    m &= other\n"
        )
        findings = lint_source(source, select={"RPR016"})
        assert codes(findings) == ["RPR016"]
        assert "escaped its owner" in findings[0].message
        assert "get_masks" in findings[0].message

    def test_trigger_mutation_of_frozen_self_attribute(self):
        source = (
            "class Holder:\n"
            "    def __init__(self, template):\n"
            "        self.masks = template.base_matrix\n"
            "    def clobber(self):\n"
            "        self.masks[0] = 0\n"
        )
        findings = lint_source(source, select={"RPR016"})
        assert codes(findings) == ["RPR016"]
        assert "stored on self" in findings[0].message

    def test_pass_rebind_kills_the_frozen_def(self):
        source = (
            "import numpy as np\n"
            "def fresh(template, compiled):\n"
            "    return template.vector_masks(compiled)\n"
            "def consumer(template, compiled):\n"
            "    m = fresh(template, compiled)\n"
            "    m = np.zeros(4)\n"
            "    m[0] = 1\n"
        )
        assert lint_source(source, select={"RPR016"}) == []

    def test_pass_copy_breaks_the_escape(self):
        source = (
            "def get_masks(template, compiled):\n"
            "    return template.vector_masks(compiled)\n"
            "def consumer(template, compiled, other):\n"
            "    m = get_masks(template, compiled).copy()\n"
            "    m &= other\n"
        )
        assert lint_source(source, select={"RPR016"}) == []

    def test_pass_reads_of_escaped_refs(self):
        source = (
            "def get_masks(template, compiled):\n"
            "    return template.vector_masks(compiled)\n"
            "def consumer(template, compiled):\n"
            "    m = get_masks(template, compiled)\n"
            "    return m.sum()\n"
        )
        assert lint_source(source, select={"RPR016"}) == []


class TestSuppressionEdgeCases:
    # One line tripping two rules: an extend method aliasing a shared
    # attribute, then mutating through the alias (RPR003 + RPR011).
    TWO_RULE_LINE = (
        "def extend(self, category_set):\n"
        "    masks = self.base_matrix\n"
        "    masks &= 0{pragma}\n"
    )

    def test_one_pragma_silences_multiple_codes(self):
        source = self.TWO_RULE_LINE.format(
            pragma="  # repro-lint: ignore[RPR003,RPR011]"
        )
        assert lint_source(source, select={"RPR003", "RPR011"}) == []

    def test_unlisted_code_still_fires(self):
        source = self.TWO_RULE_LINE.format(pragma="  # repro-lint: ignore[RPR003]")
        assert codes(lint_source(source, select={"RPR003", "RPR011"})) == ["RPR011"]

    def test_both_codes_fire_without_pragma(self):
        source = self.TWO_RULE_LINE.format(pragma="")
        assert codes(lint_source(source, select={"RPR003", "RPR011"})) == [
            "RPR003",
            "RPR011",
        ]

    def test_skip_file_makes_the_cli_exit_zero(self, tmp_path):
        bad = tmp_path / "skipped.py"
        bad.write_text(
            "# repro-lint: skip-file\n"
            "def f(net):\n"
            "    net.alive[0] = False\n"
        )
        out = io.StringIO()
        assert lint_main([str(bad)], out=out) == 0
        assert "0 findings" in out.getvalue()

    def test_unknown_suppression_code_warns(self):
        source = "x = 1  # repro-lint: ignore[RPR999]\n"
        with pytest.warns(UserWarning, match=r"unknown rule code\(s\) RPR999"):
            lint_source(source)

    def test_known_suppression_codes_do_not_warn(self, recwarn):
        source = "def f(net):\n    net.alive[0] = False  # repro-lint: ignore[RPR001]\n"
        lint_source(source)
        assert not [w for w in recwarn if "unknown rule code" in str(w.message)]


class TestRepoIsClean:
    def test_src_tree_lints_clean(self):
        findings = lint_paths([REPO_SRC])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestCli:
    def test_clean_tree_exits_zero(self):
        out = io.StringIO()
        assert lint_main([str(REPO_SRC)], out=out) == 0
        assert "0 findings" in out.getvalue()

    def test_findings_exit_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(net):\n    net.alive[0] = False\n")
        out = io.StringIO()
        assert lint_main([str(bad)], out=out) == 1
        assert "RPR001" in out.getvalue()

    def test_json_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import warnings\ndef f():\n    warnings.warn('x')\n")
        out = io.StringIO()
        assert lint_main([str(bad), "--format=json"], out=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["counts"] == {"RPR005": 1}
        assert payload["findings"][0]["code"] == "RPR005"
        assert len(payload["rules"]) >= 8

    def test_select_filters(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import warnings\ndef f():\n    warnings.warn('x')\n")
        out = io.StringIO()
        assert lint_main([str(bad), "--select", "RPR001"], out=out) == 0

    def test_unknown_select_exits_two(self):
        assert lint_main(["--select", "RPR999"], out=io.StringIO()) == 2

    def test_list_rules(self):
        out = io.StringIO()
        assert lint_main(["--list-rules"], out=out) == 0
        listing = out.getvalue()
        for rule in all_rules():
            assert rule.code in listing

    def test_syntax_error_exits_two(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert lint_main([str(bad)], out=io.StringIO()) == 2


BAD_WARN = "import warnings\ndef f():\n    warnings.warn('x')\n"


class TestCliBaseline:
    def test_write_baseline_requires_the_file_argument(self):
        assert lint_main(["--write-baseline"], out=io.StringIO()) == 2

    def test_baseline_absorbs_recorded_findings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_WARN)
        baseline = tmp_path / "baseline.json"

        out = io.StringIO()
        assert (
            lint_main(
                [str(bad), "--baseline", str(baseline), "--write-baseline"], out=out
            )
            == 0
        )
        assert baseline.exists()

        out = io.StringIO()
        assert lint_main([str(bad), "--baseline", str(baseline)], out=out) == 0
        assert "absorbed by baseline" in out.getvalue()

    def test_new_findings_still_fail_against_a_baseline(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_WARN)
        baseline = tmp_path / "baseline.json"
        lint_main(
            [str(bad), "--baseline", str(baseline), "--write-baseline"],
            out=io.StringIO(),
        )

        bad.write_text(BAD_WARN + "def g():\n    warnings.warn('y')\n")
        out = io.StringIO()
        assert lint_main([str(bad), "--baseline", str(baseline)], out=out) == 1
        # Only the new finding is reported; the recorded one is absorbed.
        assert out.getvalue().count("RPR005") == 1
        assert "warnings.warn" not in out.getvalue() or "1 finding " in out.getvalue()

    def test_fixing_a_finding_never_breaks_the_build(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_WARN)
        baseline = tmp_path / "baseline.json"
        lint_main(
            [str(bad), "--baseline", str(baseline), "--write-baseline"],
            out=io.StringIO(),
        )
        bad.write_text("def f():\n    return 1\n")  # the finding is fixed
        assert (
            lint_main([str(bad), "--baseline", str(baseline)], out=io.StringIO()) == 0
        )

    def test_garbage_baseline_exits_two(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_WARN)
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{\"version\": 99}")
        assert (
            lint_main([str(bad), "--baseline", str(baseline)], out=io.StringIO()) == 2
        )


class TestCliSarif:
    def test_sarif_document_shape(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_WARN)
        out = io.StringIO()
        assert lint_main([str(bad), "--format=sarif"], out=out) == 1
        document = json.loads(out.getvalue())
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {rule["id"] for rule in driver["rules"]} == {
            rule.code for rule in all_rules()
        }
        (result,) = run["results"]
        assert result["ruleId"] == "RPR005"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 3

    def test_clean_tree_sarif_has_no_results(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n")
        out = io.StringIO()
        assert lint_main([str(clean), "--format=sarif"], out=out) == 0
        document = json.loads(out.getvalue())
        assert document["runs"][0]["results"] == []


class TestCliChangedOnly:
    @pytest.fixture()
    def git_repo(self, tmp_path, monkeypatch):
        if shutil.which("git") is None:
            pytest.skip("git not available")
        monkeypatch.chdir(tmp_path)
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        subprocess.run(["git", "init", "-q"], check=True)
        return tmp_path

    def test_untracked_file_is_reported(self, git_repo):
        (git_repo / "seed.py").write_text("def f():\n    return 1\n")
        subprocess.run(["git", "add", "seed.py"], check=True)
        subprocess.run(["git", "commit", "-qm", "seed"], check=True)
        bad = git_repo / "bad.py"
        bad.write_text(BAD_WARN)
        out = io.StringIO()
        assert lint_main([str(git_repo), "--changed-only"], out=out) == 1
        assert "RPR005" in out.getvalue()

    def test_committed_findings_are_filtered_out(self, git_repo):
        bad = git_repo / "bad.py"
        bad.write_text(BAD_WARN)
        subprocess.run(["git", "add", "bad.py"], check=True)
        subprocess.run(["git", "commit", "-qm", "seed"], check=True)
        # Unchanged vs HEAD: the finding exists but is out of scope.
        assert lint_main([str(git_repo)], out=io.StringIO()) == 1
        assert lint_main([str(git_repo), "--changed-only"], out=io.StringIO()) == 0

    def test_outside_a_repo_exits_two(self, tmp_path, monkeypatch):
        if shutil.which("git") is None:
            pytest.skip("git not available")
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_WARN)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert lint_main([str(bad), "--changed-only"], out=io.StringIO()) == 2
