"""numpy, imported the first time a route reads one of its attributes.

fy, bekessy and the CLI's argument errors never touch an array, nor do count
and count01 when the sorted line DP answers, and importing numpy costs most
of a fresh process's start-up.  So the modules bind ``np`` from here in
place of ``import numpy as np``: reading ``np.zeros`` imports numpy then, and
caches the attribute on the proxy so later reads are plain instance-dict
lookups.  Nothing is put into ``sys.modules`` other than numpy itself, when
it loads.
"""


class _Numpy:
    def __getattr__(self, name: str):
        # only reached on a miss: the first read of each name
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
