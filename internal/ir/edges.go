package ir

// Succs returns the control-flow successors of b within f, derived from
// the terminator and layout order:
//
//   - OpB: the branch target only,
//   - OpBC: the fallthrough block first, then the taken target,
//   - OpRet: none,
//   - no terminator: the next block in layout order.
//
// The fallthrough-first convention matches the reading order of the code.
func Succs(f *Func, b *Block) []*Block { return AppendSuccs(nil, f, b) }

// AppendSuccs appends Succs(f, b) to dst and returns it, so a caller
// walking every block can reuse one buffer.
func AppendSuccs(dst []*Block, f *Func, b *Block) []*Block {
	t := b.Terminator()
	switch {
	case t == nil:
		if b.Index+1 < len(f.Blocks) {
			dst = append(dst, f.Blocks[b.Index+1])
		}
	case t.Op == OpB:
		if tgt := f.BlockByLabel(t.Target); tgt != nil {
			dst = append(dst, tgt)
		}
	case t.Op == OpBC || t.Op == OpBCT:
		if b.Index+1 < len(f.Blocks) {
			dst = append(dst, f.Blocks[b.Index+1])
		}
		if tgt := f.BlockByLabel(t.Target); tgt != nil {
			dst = append(dst, tgt)
		}
	}
	return dst
}
