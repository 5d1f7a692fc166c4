"""Shared test setup.

The test tree has no ``__init__.py`` files, so pytest puts this
directory on ``sys.path`` when it loads this file.  That lets test
modules in any subdirectory import the reference helpers kept beside
it by plain name (``import replay_oracle``).
"""
