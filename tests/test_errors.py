"""Every package exception survives pickling, as forked children send them."""

import pickle

import pytest

from mflab import errors

ARGS = {
    errors.SimulationDivergedError: (5, 1e7),
    errors.NonconvergenceError: ([1.0, 0.5],),
}
CLASSES = [c for c in vars(errors).values()
           if isinstance(c, type) and issubclass(c, errors.MflabError)]


def test_custom_constructors_are_among_the_classes():
    assert set(ARGS) <= set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_round_trip_keeps_type_message_and_attributes(cls):
    err = cls(*ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)
