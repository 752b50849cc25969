"""Every function the bench tracer wraps exists in the package.

The one check is ``test_public_api.test_tracer_targets_exist``; this module
runs that same function under the test id it has had since the tracer was
written, so a run compared by test id still finds it.
"""

from test_public_api import test_tracer_targets_exist as test_every_traced_function_resolves

__all__ = ["test_every_traced_function_resolves"]
