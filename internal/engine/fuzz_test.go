package engine_test

import (
	"bytes"
	"context"
	"testing"

	"canids/internal/can"
	"canids/internal/core"
	"canids/internal/detect"
	"canids/internal/engine"
	"canids/internal/model"
	"canids/internal/trace"
)

// fuzzFormats maps the fuzzer's format selector to the three log formats.
var fuzzFormats = []trace.Format{trace.FormatCandump, trace.FormatCSV, trace.FormatBinary}

// teeSource records every record a source yields.
type teeSource struct {
	src engine.Source
	got *trace.Trace
}

func (t *teeSource) Next() (trace.Record, error) {
	rec, err := t.src.Next()
	if err == nil {
		*t.got = append(*t.got, rec)
	}
	return rec, err
}

// FuzzTraceRoundTrip drives arbitrary bytes through the engine's reader
// path — NewLogSource decoding one of the three trace formats, feeding a
// live engine — and, when the input decodes fully, demands that
// write→decode reproduces the records exactly. The engine run guards
// the streaming pipeline (window walk, scoring, shutdown)
// against pathological timestamps and frame shapes; the round trip
// guards the codecs.
func FuzzTraceRoundTrip(f *testing.F) {
	// Valid seeds per format.
	f.Add(byte(0), []byte("(1.000000) can0 123#DEADBEEF\n(2.500000) can0 7FF#0102030405060708\n"))
	f.Add(byte(0), []byte("# comment\n\n(0.000001) vcan0 001#\n"))
	f.Add(byte(1), []byte("time_us,channel,id,dlc,data,source,injected\n1000,ms,123,2,DEAD,ecu1,0\n2000,ms,124,1,BE,attacker,1\n"))
	f.Add(byte(1), []byte("time_us,channel,id,dlc,data,source,injected\n1000,ms,000000F2,0,,e,0\n2000,ms,100,4,R,e,0\n"))
	var bin bytes.Buffer
	_ = trace.WriteBinary(&bin, trace.Trace{
		{Time: 1500, Frame: can.MustFrame(0x123, []byte{1, 2}), Channel: "ms-can", Source: "PCM"},
		{Time: 2500, Frame: can.MustFrame(0x7FF, nil), Injected: true},
	})
	f.Add(byte(2), bin.Bytes())

	// Malformed seeds: truncated, corrupt and boundary-abusing lines.
	f.Add(byte(0), []byte("(1.000000) can0\n"))                                                                // missing frame
	f.Add(byte(0), []byte("(1e9.00) can0 123#00\n"))                                                           // bad seconds
	f.Add(byte(0), []byte("(1.9999999) can0 123#00\n"))                                                        // overlong usec
	f.Add(byte(0), []byte("(-1.000000) can0 123#00\n"))                                                        // negative time
	f.Add(byte(0), []byte("(9223372036.000000) can0 123#00\n"))                                                // ns overflow
	f.Add(byte(1), []byte("time_us,channel,id,dlc,data,source,injected\n9223372036854775807,ms,123,0,,x,0\n")) // µs overflow
	f.Add(byte(1), []byte("1000,ms,123,9,DEAD,ecu1,0\n"))                                                      // dlc out of range
	f.Add(byte(1), []byte("1000,ms,123,2,DEA,ecu1,0\n"))                                                       // odd hex
	f.Add(byte(2), []byte("CTR1"))                                                                             // header only
	f.Add(byte(2), append([]byte("CTR1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF))                     // forged count
	f.Add(byte(2), []byte("NOPE....."))                                                                        // bad magic

	// A flat template: decoded records are also scored, so the fuzzer
	// reaches window scoring and alerting.
	cfg := core.DefaultConfig()
	flat := func(v float64) []float64 {
		vec := make([]float64, cfg.Width)
		for i := range vec {
			vec[i] = v
		}
		return vec
	}
	spec := model.Spec{Core: cfg, Template: core.Template{
		Width: cfg.Width, Windows: 1, MeanH: flat(0.5), MinH: flat(0.45), MaxH: flat(0.55), MeanP: flat(0.5),
	}}

	f.Fuzz(func(t *testing.T, format byte, data []byte) {
		ft := fuzzFormats[int(format)%len(fuzzFormats)]
		src, err := engine.NewLogSource(bytes.NewReader(data), ft)
		if err != nil {
			t.Fatalf("NewLogSource(%v): %v", ft, err)
		}

		eng := newEngine(t, engine.Config{}, spec)
		var decoded trace.Trace
		_, runErr := eng.Run(context.Background(), &teeSource{src: src, got: &decoded}, func(detect.Alert) {})
		if runErr != nil {
			return // malformed input is fine; panics and hangs are not
		}

		// Full decode: the records must survive write→decode bit-exactly
		// (candump drops Source/Injected by design; the decoder never
		// sets them, so whole-record equality still holds).
		var buf bytes.Buffer
		if err := trace.Write(&buf, ft, decoded); err != nil {
			t.Fatalf("%v: re-encode of accepted trace: %v", ft, err)
		}
		dec, err := trace.NewDecoder(ft, &buf)
		if err != nil {
			t.Fatal(err)
		}
		back, err := trace.ReadAll(dec)
		if err != nil {
			t.Fatalf("%v: re-decode of written trace: %v", ft, err)
		}
		if len(back) != len(decoded) {
			t.Fatalf("%v: round trip length %d != %d", ft, len(back), len(decoded))
		}
		for i := range decoded {
			want := decoded[i]
			if ft == trace.FormatCandump && want.Channel == "" {
				want.Channel = "can0" // writer's default channel
			}
			if back[i].Time != want.Time || back[i].Channel != want.Channel ||
				back[i].Source != want.Source || back[i].Injected != want.Injected ||
				!back[i].Frame.Equal(want.Frame) {
				t.Fatalf("%v: record %d mutated in round trip:\n got  %+v\n want %+v", ft, i, back[i], want)
			}
		}
	})
}
