import os
import threading

import pytest

from torusppc import _parallel


def test_results_come_in_item_order_when_a_later_item_finishes_first(monkeypatch):
    monkeypatch.setattr(_parallel, "usable_cores", lambda: 2)
    second_done = threading.Event()
    finished = []

    def work(i):
        if i == 0 and not second_done.wait(timeout=30):
            raise TimeoutError("item 1 never ran next to item 0")
        finished.append(i)
        if i == 1:
            second_done.set()
        return 10 * i

    assert _parallel.ordered_map(work, range(2)) == [0, 10]
    assert finished == [1, 0]


def test_the_first_failing_item_raises(monkeypatch):
    # item 2 fails first in time, item 1 first in item order
    monkeypatch.setattr(_parallel, "usable_cores", lambda: 2)
    third_failed = threading.Event()

    def work(i):
        if i == 1:
            third_failed.wait(timeout=30)
            raise ValueError("item 1")
        if i == 2:
            third_failed.set()
            raise KeyError("item 2")
        return i

    with pytest.raises(ValueError, match="item 1"):
        _parallel.ordered_map(work, range(4))


def test_generator_items_are_pulled_on_the_calling_thread():
    pulled_on = []

    def items():
        for i in range(6):
            pulled_on.append(threading.current_thread())
            yield i

    assert _parallel.ordered_map(lambda i: i * i, items()) == [0, 1, 4, 9, 16, 25]
    assert pulled_on == [threading.current_thread()] * 6


def test_no_items_give_no_results():
    assert _parallel.ordered_map(lambda i: i, iter(())) == []


def test_usable_cores_is_the_affinity_where_there_is_one():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no sched_getaffinity on this platform")
    assert _parallel.usable_cores() == len(os.sched_getaffinity(0))


def test_usable_cores_falls_back_to_the_cpu_count_then_to_one(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 7)
    assert _parallel.usable_cores() == 7
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _parallel.usable_cores() == 1
