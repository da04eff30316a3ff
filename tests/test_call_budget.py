"""The request path's call budget: Python-level calls per request.

After PRs 3, 13 and 18 the profile of the `stack` workloads is flat
(outside the kernel's own run loop no function holds 5 % of self time),
so what is left to defend is not a hot spot but a count: how many calls
`cProfile` sees per replayed request.  DESIGN.md 5l states the rule
that brought it down; this gate holds it there.

Every assertion is on a count, never on a clock, and the count is
exact for a seed on one Python version (it moves by about 1 % between
3.10 and 3.13, which is what the head-room is for).

    PYTHONPATH=src python tests/test_call_budget.py [--scale 0.25]
                                                    [--pstats-out FILE]

prints the figures (one line per workload) and the `jpeg_dispatch`,
`transend_mix` and `hotbot_scatter` callee tables — at the test's own scale they are what
to paste below when a change is meant to move them.
"""

import argparse
import cProfile
import pstats
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

SEED = 1997
#: a unit of ~1500 requests (194 HotBot queries): the four replays take
#: under ten seconds together, profiler included
SCALE = 0.05

#: calls per request at (SEED, SCALE), Python 3.11:
#: workload -> (at the parent of the PR that brought it down, recorded
#: now).  PR 19 brought the three TranSend-path workloads down (its
#: figures: 310.2 / 297.6 / 546.0; PR 22's `Component.spawn` sweep took
#: three more calls off each) and PR 22 `hotbot_scatter`, from the
#: 1959.8 PR 19 left it at.  The figures are larger than DESIGN.md's,
#: which are at scale 0.25: a short unit spreads the same beacons and
#: reports over fewer requests and runs on colder caches.
#: PR 24 took the `any_of([x, timer])` of every deadline off the path
#: (one `TimedWait` instead of a `Timeout`, a `Condition`, its dict and
#: its `_detach`): 307.2 / 294.7 / 544.4 / 1627.2 before it.
#: `transend_mix` was brought down again by the cache layer's pass
#: (membership by event, one placement hash per key, bound latency
#: draws; DESIGN.md 5l), from 512.8.  `hotbot_scatter` was brought
#: down again by the flat index (DESIGN.md §5): a leg's fetch reads a
#: term's id and two offsets, not a `dict.get` for its postings, a
#: `len` of them and a `global_idf.get`, from 1608.8 (1959.8 before
#: the columns and pairs).  The three TranSend-path workloads came down
#: again when a request became one record (DESIGN.md 5l): the front
#: end's reply event is the `Request` and a dispatch attempt's envelope
#: its own reply, two `Environment.event` calls fewer per dispatched
#: request.  `hotbot_scatter` came down from 1556.0 when a leg's fetch
#: and ranking became one `InvertedIndex.search`: per leg, `lookup`,
#: `rank_columns`, a list comprehension and a `dict.items` gave way to
#: one `search` and one `sorted`.
#: All four came down again when a leg stopped sorting its own answer
#: (it sends its scores and the gather ranks once: one `best_first`
#: per query, not a `sorted` per leg), `Process._resume` stopped
#: calling `isinstance` per resume and a link's meter kept its open
#: bucket as two scalars: 285.5 / 275.0 / 477.1 / 1510.3 before.
#: The recorded figures were then made exact (`calls_by_callee`): the
#: `pstats` snapshot had kept one of the eight or nine dataclass
#: `<string>:__init__` entries and dropped the rest, so 274.2 / 264.7
#: / 459.4 / 1470.9 undercounted the same trajectory.  The parent
#: column stays as it was measured.
#: The monitor's per-beacon queue series (a `QueueSample` per worker
#: advert, never read) went: 277.2 / 267.7 / 460.4 / 1463.3 just
#: before, re-recorded from 277.5 / 267.9 / 464.3 / 1470.9.
RECORDED = {
    "jpeg_dispatch": (285.5, 276.8),
    "overload_ramp": (275.0, 267.5),
    "transend_mix": (477.1, 457.7),
    "hotbot_scatter": (1510.3, 1463.3),
}
#: what a Python version may add to the recorded figure
HEAD_ROOM = 1.03

#: the kernel heap's peak depth at (SEED, SCALE), as `run_unit` samples
#: it (a property of the trajectory: the same on every Python).  With
#: each deadline's losing timer left in the heap until it was due the
#: depth was the longest timeout times the arrival rate — 1841 / 1831 /
#: 1573 / 393 at the parent of PR 24; a cancelled private timer is
#: compacted out, so this is about twice what is in flight.
RECORDED_HEAP_DEPTH = {
    "jpeg_dispatch": 191,
    "overload_ramp": 1324,
    "transend_mix": 114,
    "hotbot_scatter": 91,
}
HEAP_HEAD_ROOM = 1.1

#: `jpeg_dispatch` at (SEED, SCALE): calls per request by callee, every
#: callee called at least once per five requests (`<string>:__init__`
#: sums every dataclass-generated `__init__`).  Not asserted on —
#: it is what a failure is explained against.
JPEG_DISPATCH_CALLEES = {
    "~:<method 'append' of 'list' objects>": 22.75,
    "repro/sim/kernel.py:__init__": 21.59,
    "~:<method 'append' of 'collections.deque' objects>": 16.65,
    "~:<method 'popleft' of 'collections.deque' objects>": 16.62,
    "repro/sim/kernel.py:_resume": 16.29,
    "~:<method 'send' of 'generator' objects>": 16.29,
    "~:<built-in method builtins.len>": 12.01,
    "~:<built-in method _heapq.heappush>": 10.30,
    "~:<built-in method _heapq.heappop>": 8.31,
    "repro/core/frontend.py:_handle": 8.00,
    "repro/sim/kernel.py:timeout": 8.00,
    "repro/sim/kernel.py:succeed": 5.29,
    "repro/sim/network.py:reserve": 5.28,
    "<string>:__init__": 4.23,
    "repro/experiments/_harness.py:_distill": 4.00,
    "~:<method 'random' of '_random.Random' objects>": 3.71,
    "repro/sim/kernel.py:get": 3.29,
    "repro/sim/kernel.py:put_nowait": 3.29,
    "~:<built-in method builtins.max>": 3.06,
    "~:<method 'get' of 'dict' objects>": 3.02,
    "~:<built-in method builtins.hasattr>": 3.00,
    "repro/core/manager_stub.py:dispatch": 3.00,
    "repro/core/worker_stub.py:_service_loop": 3.00,
    "repro/sim/node.py:compute": 3.00,
    "repro/sim/network.py:transfer_delay": 2.28,
    "~:<method 'values' of 'dict' objects>": 2.10,
    "~:<built-in method builtins.min>": 2.06,
    "repro/balance/policies.py:<listcomp>": 2.00,
    "repro/core/component.py:spawn": 2.00,
    "repro/core/messages.py:__init__": 2.00,
    "repro/core/worker_stub.py:_deliver": 2.00,
    "repro/distillers/base.py:mean": 2.00,
    "repro/sim/kernel.py:_on_event": 2.00,
    "repro/tacc/content.py:__init__": 2.00,
    "repro/tacc/content.py:__len__": 2.00,
    "repro/tacc/content.py:__post_init__": 2.00,
    "repro/tacc/worker.py:param": 2.00,
    "repro/workload/playback.py:_request": 2.00,
    "~:<built-in method math.log>": 1.36,
    "~:<built-in method builtins.sum>": 1.28,
    "repro/sim/kernel.py:process": 1.00,
    "benchmarks/stack/harness.py:on_answer": 1.00,
    "benchmarks/stack/workloads.py:_grade_response": 1.00,
    "random.py:lognormvariate": 1.00,
    "random.py:normalvariate": 1.00,
    "repro/balance/policies.py:on_reply": 1.00,
    "repro/balance/policies.py:on_submit": 1.00,
    "repro/balance/policies.py:select": 1.00,
    "repro/core/fabric.py:<listcomp>": 1.00,
    "repro/core/fabric.py:submit": 1.00,
    "repro/core/frontend.py:_ladder_shed": 1.00,
    "repro/core/frontend.py:_should_shed": 1.00,
    "repro/core/frontend.py:submit": 1.00,
    "repro/core/manager_stub.py:<listcomp>": 1.00,
    "repro/core/manager_stub.py:candidates": 1.00,
    "repro/core/manager_stub.py:pick": 1.00,
    "repro/core/worker_stub.py:submit": 1.00,
    "repro/degrade/guards.py:earn": 1.00,
    "repro/distillers/base.py:predicted_image_reduction": 1.00,
    "repro/distillers/base.py:sample": 1.00,
    "repro/distillers/base.py:simulate": 1.00,
    "repro/distillers/base.py:work_estimate": 1.00,
    "repro/distillers/base.py:work_sample": 1.00,
    "repro/experiments/_harness.py:handle": 1.00,
    "repro/recovery/gray.py:inflation": 1.00,
    "repro/sim/rng.py:lognormal": 1.00,
    "repro/sim/rng.py:weighted_choice": 1.00,
    "repro/tacc/content.py:derive": 1.00,
    "repro/tacc/worker.py:content": 1.00,
    "repro/workload/playback.py:_launch": 1.00,
    "repro/workload/playback.py:observe_success": 1.00,
    "repro/workload/playback.py:play": 1.00,
    "~:<built-in method _bisect.bisect_right>": 1.00,
    "~:<built-in method math.exp>": 1.00,
    "~:<method 'sort' of 'list' objects>": 1.00,
    "~:<method 'update' of 'dict' objects>": 1.00,
    "repro/sim/kernel.py:now": 0.54,
    "repro/core/worker_stub.py:<genexpr>": 0.30,
    "repro/sim/kernel.py:schedule_call": 0.28,
    "repro/core/manager.py:<genexpr>": 0.23,
    "repro/core/manager_stub.py:refresh": 0.21,
}

#: `transend_mix` at (SEED, SCALE), likewise: 1.49 cache lookups and
#: 1.28 stores per request, one placement hash per key.
TRANSEND_MIX_CALLEES = {
    "~:<method 'append' of 'list' objects>": 36.77,
    "repro/sim/kernel.py:__init__": 33.87,
    "~:<method 'append' of 'collections.deque' objects>": 26.95,
    "~:<method 'popleft' of 'collections.deque' objects>": 26.93,
    "repro/sim/kernel.py:_resume": 23.62,
    "~:<method 'send' of 'generator' objects>": 23.62,
    "~:<built-in method _heapq.heappush>": 16.68,
    "~:<built-in method builtins.len>": 16.17,
    "~:<built-in method _heapq.heappop>": 13.74,
    "repro/sim/kernel.py:succeed": 10.72,
    "repro/core/frontend.py:_handle": 9.65,
    "repro/sim/network.py:reserve": 7.76,
    "repro/sim/kernel.py:get": 7.75,
    "repro/sim/kernel.py:put_nowait": 7.75,
    "~:<method 'get' of 'dict' objects>": 7.61,
    "repro/sim/kernel.py:now": 6.51,
    "repro/transend/service.py:handle": 5.65,
    "repro/transend/cachesys.py:_service_loop": 5.53,
    "repro/sim/kernel.py:timeout": 5.46,
    "<string>:__init__": 4.97,
    "~:<method 'random' of '_random.Random' objects>": 4.11,
    "~:<built-in method builtins.sum>": 3.99,
    "~:<method 'values' of 'dict' objects>": 3.99,
    "repro/sim/network.py:transfer_delay": 3.97,
    "repro/transend/service.py:_get_original": 3.46,
    "repro/sim/kernel.py:schedule_call": 3.00,
    "repro/sim/kernel.py:_on_event": 2.97,
    "repro/transend/cachesys.py:lookup": 2.97,
    "~:<built-in method builtins.hasattr>": 2.49,
    "repro/core/manager.py:<genexpr>": 2.41,
    "repro/transend/origin.py:fetch": 2.37,
    "repro/core/component.py:_tick": 2.20,
    "~:<built-in method math.log>": 2.16,
    "repro/workload/playback.py:_request": 2.00,
    "repro/core/manager_stub.py:refresh": 1.81,
    "repro/sim/multicast.py:_deliver": 1.71,
    "repro/sim/kernel.py:try_put": 1.71,
    "repro/sim/multicast.py:get": 1.71,
    "repro/sim/network.py:<listcomp>": 1.70,
    "repro/sim/network.py:_control_link": 1.70,
    "repro/sim/network.py:multicast_drop_probability": 1.70,
    "repro/sim/network.py:rate": 1.70,
    "repro/sim/network.py:utilization": 1.70,
    "repro/core/manager.py:<listcomp>": 1.50,
    "repro/core/manager.py:workers_of_type": 1.50,
    "random.py:expovariate": 1.49,
    "repro/cache/latency.py:hit_time": 1.49,
    "repro/cache/lru.py:get": 1.49,
    "repro/core/component.py:spawn": 1.49,
    "repro/core/messages.py:__init__": 1.49,
    "repro/sim/hashing.py:stable_hash": 1.49,
    "~:<built-in method _hashlib.openssl_md5>": 1.49,
    "~:<built-in method from_bytes>": 1.49,
    "~:<method 'digest' of '_hashlib.HASH' objects>": 1.49,
    "~:<method 'encode' of 'str' objects>": 1.49,
    "~:<method 'update' of 'dict' objects>": 1.49,
    "~:<built-in method builtins.max>": 1.47,
    "repro/core/worker_stub.py:_service_loop": 1.46,
    "repro/core/manager_stub.py:dispatch": 1.46,
    "repro/sim/node.py:compute": 1.46,
    "~:<method 'pop' of 'dict' objects>": 1.31,
    "repro/core/monitor.py:_mark_seen": 1.31,
    "repro/sim/kernel.py:length": 1.31,
    "repro/sim/transport.py:_deliver": 1.31,
    "repro/sim/transport.py:recv": 1.31,
    "repro/sim/transport.py:send": 1.30,
    "repro/cache/lru.py:_remove": 1.28,
    "repro/cache/lru.py:put": 1.28,
    "repro/tacc/content.py:__init__": 1.28,
    "repro/tacc/content.py:__len__": 1.28,
    "repro/tacc/content.py:__post_init__": 1.28,
    "repro/transend/cachesys.py:store": 1.28,
    "~:<method 'pop' of 'collections.OrderedDict' objects>": 1.28,
    "~:<built-in method builtins.isinstance>": 1.17,
    "~:<built-in method builtins.min>": 1.08,
    "repro/sim/kernel.py:process": 1.00,
    "benchmarks/stack/harness.py:on_answer": 1.00,
    "benchmarks/stack/workloads.py:_grade_response": 1.00,
    "repro/core/fabric.py:<listcomp>": 1.00,
    "repro/core/fabric.py:submit": 1.00,
    "repro/core/frontend.py:_ladder_shed": 1.00,
    "repro/core/frontend.py:_should_shed": 1.00,
    "repro/core/frontend.py:submit": 1.00,
    "repro/tacc/customization.py:_check_generation": 1.00,
    "repro/tacc/customization.py:overlay": 1.00,
    "repro/transend/service.py:_respond": 1.00,
    "repro/transend/service.py:profile_cache_for": 1.00,
    "repro/transend/service.py:submit": 1.00,
    "repro/workload/playback.py:_launch": 1.00,
    "repro/workload/playback.py:observe_success": 1.00,
    "repro/workload/playback.py:play": 1.00,
    "~:<built-in method _bisect.bisect_right>": 1.00,
    "~:<method 'sort' of 'list' objects>": 1.00,
    "repro/balance/policies.py:<listcomp>": 0.97,
    "repro/core/worker_stub.py:_deliver": 0.97,
    "repro/distillers/base.py:mean": 0.97,
    "repro/cache/lru.py:_evict_one": 0.94,
    "~:<method 'popitem' of 'collections.OrderedDict' objects>": 0.94,
    "repro/transend/profiles.py:original_cache_key": 0.94,
    "repro/core/manager.py:_worker_recv_loop": 0.91,
    "repro/core/worker_stub.py:<genexpr>": 0.91,
    "repro/core/worker_stub.py:_beacon_listener": 0.91,
    "repro/core/worker_stub.py:load": 0.91,
    "repro/core/manager.py:update": 0.90,
    "repro/core/worker_stub.py:is_partitioned": 0.90,
    "repro/core/manager.py:_average_queue": 0.90,
    "repro/core/worker_stub.py:_send_report": 0.90,
    "repro/core/worker_stub.py:_weighted_load": 0.90,
    "repro/core/worker_stub.py:worker_type": 0.90,
    "random.py:paretovariate": 0.79,
    "repro/cache/latency.py:miss_penalty": 0.79,
    "repro/transend/origin.py:materialize": 0.79,
    "repro/tacc/worker.py:param": 0.70,
    "repro/tacc/customization.py:get": 0.61,
    "repro/tacc/customization.py:read": 0.61,
    "repro/transend/profiles.py:distilled_cache_key": 0.55,
    "repro/sim/network.py:_roll": 0.52,
    "~:<method 'items' of 'dict' objects>": 0.50,
    "random.py:lognormvariate": 0.49,
    "random.py:normalvariate": 0.49,
    "repro/balance/policies.py:on_reply": 0.49,
    "repro/balance/policies.py:on_submit": 0.49,
    "repro/balance/policies.py:select": 0.49,
    "repro/core/manager_stub.py:<listcomp>": 0.49,
    "repro/core/manager_stub.py:candidates": 0.49,
    "repro/core/manager_stub.py:pick": 0.49,
    "repro/core/worker_stub.py:submit": 0.49,
    "repro/distillers/base.py:sample": 0.49,
    "repro/distillers/base.py:work_estimate": 0.49,
    "repro/distillers/base.py:work_sample": 0.49,
    "repro/recovery/gray.py:inflation": 0.49,
    "repro/sim/rng.py:lognormal": 0.49,
    "repro/sim/rng.py:weighted_choice": 0.49,
    "repro/tacc/content.py:derive": 0.49,
    "repro/tacc/worker.py:content": 0.49,
    "~:<built-in method math.exp>": 0.49,
    "~:<method 'setdefault' of 'dict' objects>": 0.49,
    "repro/core/manager.py:submit": 0.40,
    "repro/core/frontend.py:_beacon_listener": 0.40,
    "repro/core/manager.py:_frontend_recv_loop": 0.40,
    "repro/core/manager_stub.py:observe_beacon": 0.40,
    "repro/core/frontend.py:_send_heartbeat": 0.40,
    "repro/core/frontend.py:_watchdog_check": 0.40,
    "repro/core/frontend.py:active_requests": 0.40,
    "repro/core/manager.py:<setcomp>": 0.40,
    "repro/core/manager.py:_known_types": 0.40,
    "repro/core/manager.py:may_act": 0.40,
    "repro/core/manager_stub.py:beacon_age": 0.40,
    "repro/sim/multicast.py:publish": 0.40,
    "~:<built-in method builtins.sorted>": 0.40,
    "repro/distillers/base.py:predicted_image_reduction": 0.35,
    "repro/distillers/base.py:simulate": 0.35,
    "repro/sim/kernel.py:<listcomp>": 0.34,
    "repro/sim/kernel.py:_schedule_at": 0.30,
    "repro/sim/kernel.py:_fire": 0.30,
    "repro/sim/cluster.py:run": 0.25,
    "repro/sim/kernel.py:processed": 0.25,
    "repro/sim/kernel.py:run": 0.25,
    "~:<method 'move_to_end' of 'collections.OrderedDict' objects>": 0.21,
    "repro/core/monitor.py:_beacon_listener": 0.20,
    "repro/core/monitor.py:_report_listener": 0.20,
}

#: `hotbot_scatter` at (SEED, SCALE), likewise, per query: 15.1 legs
#: (a query the recent-searches cache answers scatters none of its 16)
#: and 10 result objects, one page's worth.
HOTBOT_SCATTER_CALLEES = {
    "~:<method 'get' of 'dict' objects>": 213.22,
    "~:<method 'append' of 'list' objects>": 132.71,
    "repro/sim/kernel.py:__init__": 119.57,
    "~:<method 'append' of 'collections.deque' objects>": 115.64,
    "~:<method 'popleft' of 'collections.deque' objects>": 115.63,
    "repro/sim/kernel.py:_resume": 82.55,
    "~:<method 'send' of 'generator' objects>": 82.55,
    "~:<built-in method builtins.len>": 51.73,
    "repro/sim/kernel.py:succeed": 48.22,
    "repro/hotbot/service.py:_service_loop": 45.36,
    "repro/sim/node.py:compute": 45.28,
    "~:<built-in method _heapq.heappush>": 34.18,
    "~:<built-in method _heapq.heappop>": 32.24,
    "repro/sim/kernel.py:get": 31.27,
    "repro/sim/kernel.py:put_nowait": 31.19,
    "repro/sim/network.py:reserve": 31.19,
    "repro/hotbot/service.py:_deliver": 30.19,
    "repro/sim/network.py:transfer_delay": 30.19,
    "~:<built-in method builtins.hasattr>": 17.10,
    "repro/sim/kernel.py:timeout": 17.09,
    "repro/core/component.py:spawn": 15.09,
    "repro/hotbot/index.py:search": 15.09,
    "repro/hotbot/service.py:_scatter_leg": 15.09,
    "repro/sim/kernel.py:_check": 15.09,
    "~:<method 'update' of 'dict' objects>": 15.09,
    "<string>:<lambda>": 10.00,
    "~:<built-in method __new__ of type object>": 10.00,
    "repro/hotbot/service.py:_handle": 4.00,
    "repro/hotbot/service.py:query": 4.00,
    "~:<method 'lower' of 'str' objects>": 4.00,
    "~:<built-in method builtins.sorted>": 2.15,
    "repro/sim/kernel.py:now": 2.06,
    "~:<built-in method builtins.max>": 2.05,
    "~:<built-in method builtins.min>": 2.01,
    "repro/sim/kernel.py:process": 2.01,
    "repro/hotbot/service.py:request": 2.00,
    "repro/workload/playback.py:_request": 2.00,
    "repro/hotbot/service.py:<listcomp>": 1.94,
    "repro/sim/kernel.py:_on_event": 1.94,
    "repro/hotbot/index.py:best_first": 1.15,
    "~:<method 'sort' of 'list' objects>": 1.15,
    "~:<built-in method builtins.isinstance>": 1.08,
    "<string>:__init__": 1.00,
    "benchmarks/stack/harness.py:on_answer": 1.00,
    "benchmarks/stack/workloads.py:<lambda>": 1.00,
    "benchmarks/stack/workloads.py:grade": 1.00,
    "repro/cache/lru.py:get": 1.00,
    "repro/hotbot/index.py:<listcomp>": 1.00,
    "repro/hotbot/index.py:hits_from_ranked": 1.00,
    "repro/hotbot/query_cache.py:<setcomp>": 1.00,
    "repro/hotbot/query_cache.py:get_page_by_key": 1.00,
    "repro/hotbot/query_cache.py:normalize_query": 1.00,
    "repro/hotbot/service.py:partial": 1.00,
    "repro/hotbot/service.py:submit": 1.00,
    "repro/workload/playback.py:_launch": 1.00,
    "repro/workload/playback.py:observe_success": 1.00,
    "repro/workload/playback.py:play": 1.00,
    "~:<built-in method _bisect.bisect_right>": 1.00,
    "repro/cache/lru.py:_remove": 0.94,
    "repro/cache/lru.py:put": 0.94,
    "repro/hotbot/documents.py:__len__": 0.94,
    "repro/hotbot/index.py:collate": 0.94,
    "repro/hotbot/partition.py:<genexpr>": 0.94,
    "repro/hotbot/partition.py:coverage_without": 0.94,
    "repro/hotbot/query_cache.py:store_by_key": 0.94,
    "repro/sim/kernel.py:<dictcomp>": 0.94,
    "repro/sim/kernel.py:all_of": 0.94,
    "~:<built-in method builtins.sum>": 0.94,
    "~:<method 'pop' of 'collections.OrderedDict' objects>": 0.94,
}

#: the tables a failure is explained against
CALLEES = {"jpeg_dispatch": JPEG_DISPATCH_CALLEES,
           "transend_mix": TRANSEND_MIX_CALLEES,
           "hotbot_scatter": HOTBOT_SCATTER_CALLEES}


def callee_label(filename, name):
    """A profile entry's name without what an unrelated edit moves
    (line numbers, the checkout's path, a built-in's address)."""
    name = re.sub(r" at 0x[0-9a-f]+", "", name)
    for anchor in ("repro/", "benchmarks/stack/"):
        _, found, tail = filename.rpartition("/" + anchor)
        if found:
            return f"{anchor}{tail}:{name}"
    return f"{filename.rsplit('/', 1)[-1]}:{name}"


def calls_by_callee(profile):
    """Calls by callee label, counted from the profiler's own entries,
    one per code object.  `pstats` keys an entry by (file, line, name),
    and every dataclass-generated `__init__` is ('<string>', 2,
    '__init__'): its snapshot keeps one of them and drops the others.
    Entries that share a label are summed here."""
    counts = defaultdict(int)
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):   # a built-in, as `pstats` names it
            filename, name = "~", code
        else:
            filename, name = code.co_filename, code.co_name
        counts[callee_label(filename, name)] += entry.callcount
    return dict(counts)


def measure(workload, scale):
    """(calls per request, calls per request by callee, the profile,
    peak heap depth) of one profiled unit — `run_unit` exactly as
    `run.py --trace 1` profiles it."""
    from benchmarks.stack.harness import run_unit
    from benchmarks.stack.workloads import WORKLOADS

    profile = cProfile.Profile()

    def around_replay(replay):
        profile.enable()
        try:
            replay()
        finally:
            profile.disable()

    unit = run_unit(WORKLOADS[workload], SEED, scale,
                    around_replay=around_replay, probe=False)
    assert unit.failed == 0
    counts = calls_by_callee(profile)
    by_callee = {label: count / unit.submitted
                 for label, count in counts.items()}
    return (sum(counts.values()) / unit.submitted, by_callee,
            pstats.Stats(profile), unit.peak_heap_depth)


def growth_report(by_callee, recorded, limit=10):
    grown = sorted(
        ((per_request - recorded.get(label, 0.0), label)
         for label, per_request in by_callee.items()), reverse=True)
    return "\n".join(
        f"  {growth:+8.2f}/req  {label}  (recorded "
        f"{recorded.get(label, 0.0):.2f})"
        for growth, label in grown[:limit] if growth > 0.0)


@pytest.mark.parametrize("workload", list(RECORDED))
def test_calls_per_request_stay_in_budget(workload):
    parent, recorded = RECORDED[workload]
    calls, by_callee, _, heap_depth = measure(workload, SCALE)
    heap_budget = RECORDED_HEAP_DEPTH[workload] * HEAP_HEAD_ROOM
    assert heap_depth <= heap_budget, (
        f"{workload}: the kernel's heap peaked at {heap_depth} entries, "
        f"budget {heap_budget:.0f} (recorded "
        f"{RECORDED_HEAP_DEPTH[workload]}).  What re-grows it is a "
        f"deadline armed on the request path as the caller's own "
        f"timer -- `any_of([x, env.timeout(d)])`, by whatever name -- "
        f"which sits in the heap until it is due; "
        f"`TimedWait(env, x, d)` cancels its private timer when `x` "
        f"wins (DESIGN.md 5d, Deadlines)")
    budget = min(recorded * HEAD_ROOM, parent)
    if calls < budget:
        return
    message = (f"{workload}: {calls:.1f} calls per request, budget "
               f"{budget:.1f} (recorded {recorded}, before it was "
               f"brought down {parent})")
    if workload in CALLEES:
        message += ("\ncallees that grew most against the recorded "
                    "table:\n"
                    + growth_report(by_callee, CALLEES[workload]))
    pytest.fail(message)


def test_dataclass_inits_are_counted_apart():
    """Two dataclasses built 3 and 5 times are 8 `__init__` calls, not
    the 5 of whichever entry the `pstats` snapshot kept."""
    @dataclass
    class First:
        x: int = 0

    @dataclass
    class Second:
        y: int = 0

    profile = cProfile.Profile()
    profile.enable()
    for _ in range(3):
        First()
    for _ in range(5):
        Second()
    profile.disable()
    assert calls_by_callee(profile)["<string>:__init__"] == 8


def test_the_recorded_table_is_the_recorded_figure():
    """A table leaves out the rare callees, so it sums to a little
    less than the figure it explains — and to no more."""
    for workload, table in CALLEES.items():
        recorded = RECORDED[workload][1]
        assert 0.97 * recorded < sum(table.values()) <= recorded + 0.5, \
            workload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, default=SCALE)
    parser.add_argument("--pstats-out", type=Path, default=None,
                        help="write the jpeg_dispatch profile here")
    args = parser.parse_args(argv)
    for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    for workload in RECORDED:
        calls, by_callee, stats, heap_depth = measure(workload, args.scale)
        print(f"{workload}: {calls:.1f} calls per request, "
              f"peak heap depth {heap_depth} "
              f"(seed {SEED}, scale {args.scale:g}, "
              f"python {sys.version.split()[0]})")
        if workload == "jpeg_dispatch" and args.pstats_out is not None:
            stats.dump_stats(args.pstats_out)
        if workload in CALLEES:
            print(f"{workload.upper()}_CALLEES = {{")
            for label, per_request in sorted(
                    by_callee.items(), key=lambda row: (-row[1], row[0])):
                if per_request >= 0.2:
                    print(f'    "{label}": {per_request:.2f},')
            print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
