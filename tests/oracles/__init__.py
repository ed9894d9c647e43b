"""Reference implementations the production code is proved against.

Each oracle is the original, obviously-faithful form of a layer whose
production version was rewritten for speed.  The library never calls
them: a test that wants a reference path imports it from here, or
monkeypatches it in for the production entry point.
"""
