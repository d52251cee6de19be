package engine

import "unsafe"

const (
	// nodeBlockSize is the chunk size of the buffer-node slab: captured
	// subtrees allocate nodes a block at a time instead of one heap
	// object per element, which matters because buffering queries (Q20's
	// return {$p}) create one node per captured element and text run.
	nodeBlockSize = 256

	// textBlockSize is the chunk size of the captured-text slab.
	textBlockSize = 4 << 10

	// maxPooledInstances bounds the recycled scope instances and
	// simple-handler firings a pooled engine keeps between executions.
	maxPooledInstances = 256
)

// newNode hands out one zeroed bufNode from the engine's chunked slab.
// Nodes are never recycled individually: a block becomes garbage as a
// whole once every tree referencing it is dropped, so discarding a
// buffered subtree still frees its memory — the slab only batches the
// allocations, it does not extend lifetimes beyond a block's slack.
func (e *engine) newNode() *bufNode {
	if len(e.nodeBlock) == 0 {
		e.nodeBlock = make([]bufNode, nodeBlockSize)
	}
	n := &e.nodeBlock[0]
	e.nodeBlock = e.nodeBlock[1:]
	return n
}

// carveText copies borrowed text bytes into the engine's text slab and
// returns them as a string, batching what would otherwise be one string
// allocation per captured text event. Safety invariant for the
// unsafe.String: the carved range [off, off+n) is never written again —
// later carves only append past it, and a full block is replaced, never
// rewound — so the returned string is as immutable as any other.
func (e *engine) carveText(data []byte) string {
	n := len(data)
	if n == 0 {
		return ""
	}
	if n >= textBlockSize/4 {
		// Big values get their own allocation rather than hogging blocks.
		return string(data)
	}
	if len(e.textBlock)+n > cap(e.textBlock) {
		e.textBlock = make([]byte, 0, textBlockSize)
	}
	off := len(e.textBlock)
	e.textBlock = append(e.textBlock, data...)
	return unsafe.String(&e.textBlock[off], n)
}

// Scope instances and simple-handler firings are recycled through
// per-engine free lists. Their lifetimes nest with the elements that
// open them: once a scope closes (closeScope) or a simple handler's
// element ends, nothing references the instance any more — child
// frames, watcher positions, accumulators and deferred handlers all
// ended first. So a scan allocates only as many instances as it has
// open at once, and a pooled engine none at all.

// allocScopeRT returns a zeroed scope instance with nw watcher flags and
// nh fired bits, reusing a recycled instance and its flag storage.
func (e *engine) allocScopeRT(nw, nh int) *scopeRT {
	var rt *scopeRT
	if n := len(e.freeScopes); n > 0 {
		rt = e.freeScopes[n-1]
		e.freeScopes = e.freeScopes[:n-1]
	} else {
		rt = &scopeRT{}
	}
	rt.flags = zeroBools(rt.flags, nw)
	rt.fired = zeroBools(rt.fired, nh)
	return rt
}

// freeScopeRT recycles a closed scope instance, keeping only its flag
// storage, so the free list pins no buffered data.
func (e *engine) freeScopeRT(rt *scopeRT) {
	*rt = scopeRT{flags: rt.flags[:0], fired: rt.fired[:0]}
	e.freeScopes = append(e.freeScopes, rt)
}

// allocSimpleRT returns a zeroed simple-handler firing with nw watcher
// flags.
func (e *engine) allocSimpleRT(nw int) *simpleRT {
	var rt *simpleRT
	if n := len(e.freeSimples); n > 0 {
		rt = e.freeSimples[n-1]
		e.freeSimples = e.freeSimples[:n-1]
	} else {
		rt = &simpleRT{}
	}
	rt.flags = zeroBools(rt.flags, nw)
	return rt
}

// freeSimpleRT recycles a finished simple-handler firing.
func (e *engine) freeSimpleRT(rt *simpleRT) {
	*rt = simpleRT{flags: rt.flags[:0]}
	e.freeSimples = append(e.freeSimples, rt)
}

// zeroBools returns n false values, in b's storage when it fits.
func zeroBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}
