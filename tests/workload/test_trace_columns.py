"""A trace held as columns behaves like the list of records it replaced,
and a trace file with a hostile line is refused where it is read.

``TraceGenerator.generate`` and ``load_trace`` return a
:class:`~repro.workload.trace.Trace`; everything that read the list
(playback, the benchmark harness, the burstiness analysis, the CLI)
reads the trace the same way, so these tests hold it to the list's
behaviour record for record.
"""

import gc
import math
import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.trace import (
    Trace,
    TraceRecord,
    iter_trace,
    load_trace,
    save_trace,
)
from repro.workload.tracegen import TraceGenerator


def generator(seed):
    return TraceGenerator(seed=seed, n_users=300, mean_rate_rps=12.0)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       duration=st.floats(0.0, 12.0, allow_nan=False))
def test_a_generated_trace_behaves_like_the_list(tmp_path_factory, seed,
                                                 duration):
    trace = generator(seed).generate(duration)
    records = list(generator(seed).iter_generate(duration))
    assert isinstance(trace, Trace)
    assert trace == records and records == trace
    assert not trace != records
    assert len(trace) == len(records)
    assert list(trace) == list(trace) == records
    for index in {0, 1, len(records) // 2, len(records) - 1, -1, -2,
                  -len(records)}:
        if -len(records) <= index < len(records):
            assert trace[index] == records[index]
            assert type(trace[index]) is TraceRecord
    for bad in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            trace[bad]
    for cut in (slice(None), slice(2, None), slice(None, -3),
                slice(1, -1, 2), slice(None, None, -1), slice(5, 2)):
        assert trace[cut] == records[cut]
        assert records[cut] == trace[cut]
        assert isinstance(trace[cut], Trace)
    folder = tmp_path_factory.mktemp("traces")
    assert save_trace(trace, str(folder / "trace.tsv")) == len(records)
    save_trace(records, str(folder / "list.tsv"))
    assert (folder / "trace.tsv").read_bytes() \
        == (folder / "list.tsv").read_bytes()
    copy = pickle.loads(pickle.dumps(trace))
    assert copy == trace and copy == records


def test_a_trace_differs_from_other_records_and_other_kinds():
    records = [TraceRecord(float(index), "c", f"u{index}", "text/html",
                           index) for index in range(4)]
    trace = Trace(records)
    assert trace != records[:3] and records[:3] != trace
    assert trace != records[:3] + [records[0]]
    assert trace != tuple(records)
    assert Trace([]) == [] and len(Trace([])) == 0
    with pytest.raises(TypeError):
        hash(trace)


def test_a_trace_keeps_priorities_and_shares_equal_strings(tmp_path):
    records = [TraceRecord(0.5 * index, f"client{index % 2}",
                           f"http://x/{index % 3}.gif", "image/gif",
                           100 + index,
                           "batch" if index % 4 == 0 else "interactive")
               for index in range(12)]
    path = str(tmp_path / "trace.tsv")
    save_trace(records, path)
    loaded = load_trace(path)
    assert isinstance(loaded, Trace)
    assert loaded == records
    assert [record.priority for record in loaded] \
        == [record.priority for record in records]
    # one string object per distinct client and url, not one per line
    assert len({id(record.client_id) for record in loaded}) == 2
    assert len({id(record.url) for record in loaded}) == 3


#: bytes a generated trace may hold per record, its columns and tables
#: included.  Typed columns take about 36; a list of `TraceRecord`
#: tuples with a timestamp float each took about 128.
TRACE_BYTES_PER_RECORD = 40


def test_trace_footprint_stays_in_budget():
    """A replay holds its whole trace while it runs, so the bytes per
    record are defended as a count, like HotBot's corpus.  The first
    `generate` fills the document universe's private cache, so the
    second one allocates only the trace."""
    trace_generator = TraceGenerator(seed=1997, n_users=2000,
                                     mean_rate_rps=50.0,
                                     with_daily_cycle=False)
    trace_generator.generate(120.0)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        trace = trace_generator.generate(120.0)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_record = (after - before) / len(trace)
    assert per_record <= TRACE_BYTES_PER_RECORD, per_record


# -- hostile trace lines ---------------------------------------------------------

GOOD = "1.000000\tclient1\thttp://x/a.gif\timage/gif\t2048"

HOSTILE = {
    "nan-timestamp": ("nan\tc\thttp://x/a\timage/gif\t10", "timestamp=nan"),
    "inf-timestamp": ("inf\tc\thttp://x/a\timage/gif\t10", "timestamp=inf"),
    "minus-inf-timestamp": ("-inf\tc\thttp://x/a\timage/gif\t10",
                            "timestamp=-inf"),
    "negative-size": ("1.0\tc\thttp://x/a\timage/gif\t-1", "size_bytes=-1"),
    "unknown-priority": ("1.0\tc\thttp://x/a\timage/gif\t10\turgent",
                         "priority='urgent'"),
    "empty-priority": ("1.0\tc\thttp://x/a\timage/gif\t10\t",
                       "priority=''"),
}


@pytest.mark.parametrize("name", HOSTILE)
def test_a_hostile_line_is_refused_naming_the_field(name):
    line, named = HOSTILE[name]
    with pytest.raises(ValueError, match=f"^{named} must be "):
        TraceRecord.from_line(line)


@pytest.mark.parametrize("name", HOSTILE)
def test_a_hostile_line_in_a_file_is_refused_naming_the_line(tmp_path,
                                                             name):
    line, named = HOSTILE[name]
    path = tmp_path / "trace.tsv"
    path.write_text(f"{GOOD}\n\n{line}\n{GOOD}\n", encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        list(iter_trace(str(path)))
    assert str(raised.value).startswith(f"{path}:3: {named} must be ")
    with pytest.raises(ValueError, match=":3: "):
        load_trace(str(path))


def test_a_file_line_that_does_not_parse_names_its_line(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text(f"{GOOD}\nsoon\tc\tu\tm\t1\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}:2: could not convert"):
        load_trace(str(path))


def test_the_accepted_edges_still_read():
    for line in (GOOD, GOOD + "\tbatch", GOOD + "\tinteractive",
                 "-2.5\tc\tu\tm\t0"):
        record = TraceRecord.from_line(line)
        assert math.isfinite(record.timestamp) and record.size_bytes >= 0
        assert TraceRecord.from_line(record.to_line()) == record
