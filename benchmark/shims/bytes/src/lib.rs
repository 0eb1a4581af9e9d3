//! Stand-in for `bytes`: `ooc-core` declares the dependency but calls
//! nothing from it, so the stand-in is empty.
