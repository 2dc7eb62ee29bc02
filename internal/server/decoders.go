package server

import (
	"io"
	"sync"

	"canids/internal/trace"
)

// resetDecoder is a trace decoder that decodes in batches, straight
// into a caller's slab, and can be pointed at another stream, keeping
// its buffers and interned names. Every format's decoder is one.
type resetDecoder interface {
	trace.Decoder
	Decode(dst []trace.Record) ([]trace.Record, error)
	Reset(io.Reader)
}

// maxIdleDecoders bounds the decoders kept between requests; more
// concurrent ingests than that still work, and build their own.
const maxIdleDecoders = 8

// decoderPool recycles Ingest's decoders across requests, so a request
// does not pay for a fresh decoder's buffers (4 KiB each) and re-intern
// its channel names. Idle decoders hold no reference to the body they
// last read. The zero value is an empty pool; it is safe for concurrent
// use.
type decoderPool struct {
	mu   sync.Mutex
	n    int
	idle [maxIdleDecoders]pooledDecoder
}

type pooledDecoder struct {
	format trace.Format
	dec    resetDecoder
}

// get returns a decoder for format reading r: an idle one when the
// pool has one, else a new one.
func (p *decoderPool) get(format trace.Format, r io.Reader) (resetDecoder, error) {
	p.mu.Lock()
	for i := p.n - 1; i >= 0; i-- {
		if p.idle[i].format == format {
			d := p.idle[i].dec
			p.n--
			p.idle[i], p.idle[p.n] = p.idle[p.n], pooledDecoder{}
			p.mu.Unlock()
			d.Reset(r)
			return d, nil
		}
	}
	p.mu.Unlock()
	d, err := trace.NewDecoder(format, r)
	if err != nil {
		return nil, err
	}
	return d.(resetDecoder), nil
}

// put makes d idle, or drops it when the pool is full.
func (p *decoderPool) put(format trace.Format, d resetDecoder) {
	d.Reset(nil)
	p.mu.Lock()
	if p.n < len(p.idle) {
		p.idle[p.n] = pooledDecoder{format, d}
		p.n++
	}
	p.mu.Unlock()
}
