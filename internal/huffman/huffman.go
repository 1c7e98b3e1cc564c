// Package huffman implements canonical Huffman coding over byte symbols.
// The standard library offers no reusable Huffman coder, and OpenVDAP's
// Deep-Compression pipeline (prune → weight-share → Huffman) needs one to
// entropy-code quantized weight indices.
package huffman

import (
	"container/heap"
	"errors"
	"sort"
)

// ErrEmptyInput is returned when encoding zero bytes.
var ErrEmptyInput = errors.New("huffman: empty input")

// ErrCorrupt is returned when a decode fails structural validation.
var ErrCorrupt = errors.New("huffman: corrupt stream")

type node struct {
	sym   int // 0..255, or -1 for internal nodes
	count int
	left  *node
	right *node
	order int // insertion order for deterministic tie-breaking
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].order < h[j].order
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any) {
	n, ok := x.(*node)
	if ok {
		*h = append(*h, n)
	}
}
func (h *nodeHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// codeLengths builds per-symbol code lengths from frequencies.
func codeLengths(freq *[256]int) [256]int {
	var lens [256]int
	h := &nodeHeap{}
	order := 0
	for s, c := range freq {
		if c > 0 {
			heap.Push(h, &node{sym: s, count: c, order: order})
			order++
		}
	}
	if h.Len() == 1 {
		// Single distinct symbol: give it a 1-bit code.
		only, _ := heap.Pop(h).(*node)
		lens[only.sym] = 1
		return lens
	}
	for h.Len() > 1 {
		a, _ := heap.Pop(h).(*node)
		b, _ := heap.Pop(h).(*node)
		heap.Push(h, &node{sym: -1, count: a.count + b.count, left: a, right: b, order: order})
		order++
	}
	root, _ := heap.Pop(h).(*node)
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n == nil {
			return
		}
		if n.sym >= 0 {
			lens[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lens
}

// canonicalCodes assigns canonical codes from code lengths: codes of the
// same length are consecutive, ordered by symbol value. It reports false
// for lengths no prefix code has: one over 64 bits, or more codes of some
// length than are left unclaimed by the shorter ones (a decoded header can
// say anything), so every code it returns fits in its length.
func canonicalCodes(lens *[256]int) (codes [256]uint64, ok bool) {
	type sl struct{ sym, length int }
	var order []sl
	maxLen := 0
	for s, l := range lens {
		if l > 0 {
			order = append(order, sl{s, l})
			if l > maxLen {
				maxLen = l
			}
		}
	}
	if maxLen > 64 {
		return codes, false
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].length != order[j].length {
			return order[i].length < order[j].length
		}
		return order[i].sym < order[j].sym
	})
	var code uint64
	prevLen := 0
	full := false // the codes handed out so far exhaust the code space
	for _, e := range order {
		if full {
			return codes, false
		}
		code <<= uint(e.length - prevLen)
		codes[e.sym] = code
		code++
		full = code == 1<<uint(e.length) // 1<<64 is 0: the wrap-around
		prevLen = e.length
	}
	return codes, true
}

// errCodeOverflow reports a code longer than 64 bits (unreachable for any
// real frequency distribution over byte symbols, guarded anyway).
var errCodeOverflow = errors.New("huffman: code length overflow")

// Encode compresses data. The output embeds the original length, a sparse
// canonical code-length table (count + symbol/length pairs — most streams
// here use few distinct symbols), and the bit stream.
func Encode(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, ErrEmptyInput
	}
	return AppendEncode(make([]byte, 0, len(data)/2+64), data)
}

// Decode reverses Encode.
func Decode(enc []byte) ([]byte, error) {
	out, err := AppendDecode(nil, enc)
	if err != nil {
		return nil, err
	}
	return out, nil
}
