"""Setup shared by every test module."""

import warnings

# When a hypothesis example fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, whose dependencies emit a DeprecationWarning on
# import.  Under `filterwarnings = ["error"]` that warning would abort the whole
# session instead of reporting one failed test, so import the module here once,
# ignoring only that warning class.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
