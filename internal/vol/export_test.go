package vol

// ScratchLen reports how many chunk buffers the volume holds for reuse.
func (v *Volume) ScratchLen() int { return len(v.scratch) }
