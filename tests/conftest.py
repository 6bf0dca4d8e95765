"""Oracles that more than one test module reads."""

import inspect

import pytest


def field_signature(cls):
    """The constructor signature of record class ``cls``, from its ``__match_args__`` and ``_record_defaults``.

    What ``inspect.signature`` shows for a frozen dataclass of the same
    fields: each positional-or-keyword, annotated as the class body
    annotates it, with its default where it has one.
    """
    empty = inspect.Parameter.empty
    return inspect.Signature([inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                                annotation=cls.__annotations__[name],
                                                default=cls._record_defaults.get(name, empty))
                              for name in cls.__match_args__], return_annotation=None)


@pytest.fixture(name="field_signature")
def _field_signature():
    return field_signature
