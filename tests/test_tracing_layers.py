"""The benchmark tracer's layer table names only functions that exist.

``perfbench/tracing.py`` rebinds each name in ``LAYERS`` when a traced run
starts; a name whose function was deleted or renamed would only fail
there.  This reads the table without installing the tracer.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_layer_resolves():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, fns in tracing.LAYERS.items():
        mod = importlib.import_module(f"monoidkit.{module}")
        for fn in fns:
            if "." in fn:  # "Class.method" is patched on the class itself
                cls_name, meth = fn.split(".")
                found = meth in vars(getattr(mod, cls_name, object))
            else:
                found = callable(getattr(mod, fn, None))
            if not found:
                missing.append(f"{module}.{fn}")
    assert not missing
