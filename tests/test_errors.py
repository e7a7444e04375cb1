"""Package errors keep their type, message and fields through a pickle round
trip, which is how an error raised in a validation worker reaches the
command."""

from __future__ import annotations

import pickle

import pytest

import forkcast.errors as errors_mod
from forkcast.errors import ForkcastError, ParseError

ERRORS = sorted((cls for cls in vars(errors_mod).values()
                 if isinstance(cls, type) and issubclass(cls, ForkcastError)),
                key=lambda cls: cls.__name__)


def _make(cls: type) -> ForkcastError:
    return cls("bad value", line=3) if issubclass(cls, ParseError) else cls("bad value")


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    error = _make(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert getattr(copy, "line", None) == getattr(error, "line", None)


def test_parse_error_message_starts_with_its_line():
    error = ParseError("bad value", line=3)
    assert str(error) == "line 3: bad value"
    assert error.line == 3
    assert {ForkcastError, ParseError} <= set(ERRORS)
