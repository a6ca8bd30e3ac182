"""Cloning machines for classes of qubit observables.

Construction, verification, and numerical search for two-qubit
interactions that copy the mean (hence the full statistics) of every
observable in a class onto both output branches, exactly for commuting
classes and up to known gains for the noncommuting pair, plus the
joint-measurement noise accounting that goes with the approximate case.
"""

__version__ = "0.1.0"
