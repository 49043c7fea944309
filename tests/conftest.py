"""Hypothesis settings for the whole suite.

Hypothesis's explain phase can fail inside its own shrinker on drawn
presentations (``assert span1.start <= start`` in shrinker.py), and the
test then ends without its falsifying example.  The loaded profile keeps
every phase but that one, so a failing property prints its example.
"""

try:
    from hypothesis import Phase, settings
except ImportError:  # the hypothesis tests skip themselves
    pass
else:
    settings.register_profile(
        "qsolv", phases=[phase for phase in Phase if phase is not Phase.explain]
    )
    settings.load_profile("qsolv")
