package entropy

// Residual-block syntax, coded a block at a time.
//
// A quantized 4×4 block is a nonzero count (ClassCoeffFlag) followed by one
// (zero run, level) pair per nonzero coefficient in zig-zag order
// (ClassCoeffRun, ClassCoeffLevel). Residuals are nine tenths of the symbols
// of a stream, so each backend codes a whole block in one call — one dynamic
// dispatch per block from the codec instead of one per symbol — and the
// arithmetic coder does it with its registers in locals, decoding and
// encoding alike.

// zigzag4 is the 4×4 zig-zag scan order.
var zigzag4 = [16]uint8{0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15}

// maxLevel bounds decoded coefficient magnitudes; corrupt streams otherwise
// produce values whose inverse transform overflows int32.
const maxLevel = 1 << 15

// clampLevel bounds a decoded level to ±maxLevel.
func clampLevel(v int32) int32 { return max(-maxLevel, min(maxLevel, v)) }

// WriteResidualBlock implements SymbolWriter. It is PutUVal and PutSVal
// unrolled over the block's symbols around a single copy of the bin encoder,
// with the coder's register, range, queue and outstanding count in locals
// for the whole block; only a completed byte (takeByte) and the rare
// exp-Golomb escape go back through the Encoder's fields. The outstanding
// count follows every renormalisation as EncodeBit and EncodeBypass keep
// it, so BitPos after the block is theirs.
func (cw *CABACWriter) WriteResidualBlock(blk *[16]int32, nnz int) {
	e := &cw.enc
	low, rng, queue, held := e.low, e.rng, e.queue, e.held

	// The block is a sequence of unsigned values written one after the
	// other — the count, then run and level magnitude alternately — each
	// level followed by its sign.
	const (
		writeCount = iota
		writeRun
		writeLevel
	)
	next := writeCount
	row := &cw.ctxs[ClassCoeffFlag]
	v := uint32(nnz)
	left := nnz
	scan := 0
	var level int32
	for {
		// One UEG value: a context-coded unary prefix of v ones closed by a
		// zero, or capped at prefixCap ones and followed by the escape.
		for i := uint32(0); ; i++ {
			c := &row[min(i, prefixContexts-1)]
			bin := uint8(0)
			if i < v {
				bin = 1
			}
			p := c.p
			rl := uint32(lpsRange[p][(rng>>6)&3])
			r := rng - rl
			if bin == p&1 {
				c.p = transMPS[p]
			} else {
				low += r
				r = rl
				c.p = transLPS[p]
			}
			if r >= 256 {
				rng = r
			} else {
				k := renormShift(r)
				rng = r << k
				held = trackHeld(held, low>>(9-k), k)
				low <<= k
				queue += int(k)
				if queue >= 8 {
					e.low, e.queue = low, queue
					e.takeByte()
					low, queue = e.low, e.queue
				}
			}
			if bin == 0 {
				break
			}
			if i+1 == prefixCap {
				// Escape: the remainder is a bypass exp-Golomb suffix.
				e.low, e.rng, e.queue, e.held = low, rng, queue, held
				cw.putBypassEG(v - prefixCap)
				low, rng, queue, held = e.low, e.rng, e.queue, e.held
				break
			}
		}

		switch next {
		case writeCount:
			if left == 0 {
				e.low, e.rng, e.queue, e.held = low, rng, queue, held
				return // the all-zero block is the one bin of a zero count
			}
		case writeRun:
			next, row = writeLevel, &cw.ctxs[ClassCoeffLevel]
			mag := level
			if mag < 0 {
				mag = -mag
			}
			v = uint32(mag)
			continue
		case writeLevel:
			// The sign is one bypass bin.
			low <<= 1
			if level < 0 {
				low += rng
			}
			held = bypassHeld(held, low)
			queue++
			if queue >= 8 {
				e.low, e.queue = low, queue
				e.takeByte()
				low, queue = e.low, e.queue
			}
			if left--; left == 0 {
				e.low, e.rng, e.queue, e.held = low, rng, queue, held
				return
			}
		}
		// The next value is the zero run before the next nonzero level.
		run := uint32(0)
		for level = blk[zigzag4[scan]]; level == 0; level = blk[zigzag4[scan]] {
			run++
			scan++
		}
		scan++
		next, row, v = writeRun, &cw.ctxs[ClassCoeffRun], run
	}
}

// WriteResidualBlock implements SymbolWriter.
func (vw *CAVLCWriter) WriteResidualBlock(blk *[16]int32, nnz int) {
	vw.w.WriteUE(uint32(nnz))
	var run uint32
	for scan := 0; nnz > 0; scan++ {
		v := blk[zigzag4[scan]]
		if v == 0 {
			run++
			continue
		}
		vw.w.WriteUE(run)
		vw.w.WriteSE(v)
		run = 0
		nnz--
	}
}

// ReadResidualBlock implements SymbolReader.
func (vr *CAVLCReader) ReadResidualBlock(blk *[16]int32) (coded bool) {
	*blk = [16]int32{}
	// A corrupt count needs no clamp: every coefficient advances the scan,
	// which ends the block at 16. A corrupt run can be any uint32, so it is
	// capped at 16 before it becomes an int, which has 32 bits on some
	// platforms.
	scan := 0
	for nnz := vr.GetUVal(ClassCoeffFlag); nnz > 0; nnz-- {
		scan += int(min(vr.GetUVal(ClassCoeffRun), 16))
		if scan >= 16 {
			break
		}
		blk[zigzag4[scan]] = clampLevel(vr.GetSVal(ClassCoeffLevel))
		coded = true
		scan++
		if scan >= 16 {
			break
		}
	}
	return coded
}

// ReadResidualBlock implements SymbolReader. It is GetUVal and GetSVal
// unrolled over the block's symbols around a single copy of the bin decoder,
// with the decoder's range, offset and window in locals for the whole block;
// only a window refill and the rare exp-Golomb escape go back through the
// Decoder's fields.
func (cr *CABACReader) ReadResidualBlock(blk *[16]int32) (coded bool) {
	*blk = [16]int32{}
	d := &cr.dec
	rng, offset, win, avail := d.rng, d.offset, d.win, d.avail

	// The block is a sequence of unsigned values read one after the other:
	// the count, then run and level magnitude alternately.
	const (
		readCount = iota
		readRun
		readLevel
	)
	next := readCount
	row := &cr.ctxs[ClassCoeffFlag]
	var left uint32
	scan := 0
	for {
		// One UEG value: a context-coded unary prefix, capped at prefixCap.
		var v uint32
		for {
			c := &row[min(v, prefixContexts-1)]
			p := c.p
			rl := uint32(lpsRange[p][(rng>>6)&3])
			rng -= rl
			bit := p & 1
			if offset < rng {
				c.p = transMPS[p]
			} else {
				bit ^= 1
				offset -= rng
				rng = rl
				c.p = transLPS[p]
			}
			if rng < 256 {
				k := renormShift(rng)
				if avail < k {
					d.win, d.avail = win, avail
					d.refill()
					win, avail = d.win, d.avail
				}
				rng <<= k
				offset = offset<<k | uint32(win>>(64-k))
				win <<= k
				avail -= k
			}
			if bit == 0 {
				break
			}
			if v++; v == prefixCap {
				// Escape: the remainder is a bypass exp-Golomb suffix.
				d.rng, d.offset, d.win, d.avail = rng, offset, win, avail
				v += cr.getBypassEG()
				rng, offset, win, avail = d.rng, d.offset, d.win, d.avail
				break
			}
		}
		// A handful of overrun bits is normal (flush padding); sustained
		// reading past the end means the stream structure is broken.
		if d.winEnd-int64(avail)-d.end > 16 {
			cr.desynced = true
		}

		switch next {
		case readCount:
			left = v // however large: the scan ends the block at 16
			next, row = readRun, &cr.ctxs[ClassCoeffRun]
		case readRun:
			scan += int(min(v, 16)) // as in CAVLCReader.ReadResidualBlock
			next, row = readLevel, &cr.ctxs[ClassCoeffLevel]
		case readLevel:
			level := int32(v)
			if v != 0 {
				// The sign is one bypass bin.
				if avail == 0 {
					d.win, d.avail = win, avail
					d.refill()
					win, avail = d.win, d.avail
				}
				offset = offset<<1 | uint32(win>>63)
				win <<= 1
				avail--
				if offset >= rng {
					offset -= rng
					level = -level
				}
			}
			blk[zigzag4[scan]] = clampLevel(level)
			coded = true
			scan++
			left--
			next, row = readRun, &cr.ctxs[ClassCoeffRun]
		}
		if left == 0 || scan >= 16 {
			break
		}
	}
	d.rng, d.offset, d.win, d.avail = rng, offset, win, avail
	return coded
}
