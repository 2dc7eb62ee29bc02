// Package dataset imports real-world CAN capture dialects as streaming
// trace.Record sources.
//
// Public intrusion-detection datasets do not share a format: the HCRL
// car-hacking captures are CSVs with one column per payload byte and an
// R/T ground-truth flag, the survival-analysis variant packs the payload
// into one contiguous hex field, and OTIDS ships candump-like logs with
// keyword-tagged fields and no labels at all. The importers here sniff
// the dialect from a sample, normalize each row into a trace.Record —
// epoch timestamps rebased to trace-relative time, bounded out-of-order
// rows sorted within a jitter horizon, DLC/payload mismatches repaired
// toward the bytes actually present — and satisfy trace.Decoder, so a
// capture file plugs straight into the streaming engine without ever being
// buffered whole.
//
// Every normalization decision is deterministic and accounted for:
// after EOF, Stats guarantees Imported + Skipped == Rows exactly, with
// Repaired and Late sub-counts for rows that were altered or dropped by
// the reorder horizon. The same package writes the dialects back out
// (Write), which is how the committed test fixtures are generated by
// cangen -dialect.
package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Dialect identifies a supported capture format.
type Dialect int

const (
	// DialectUnknown is the zero value; no importer exists for it.
	DialectUnknown Dialect = iota
	// DialectHCRL is the HCRL car-hacking CSV family: epoch seconds,
	// hex ID, DLC, one column per payload byte, then an optional
	// ground-truth label (R/T, 0/1, Normal/Attack). Attack-free
	// captures omit the label column.
	DialectHCRL
	// DialectSurvival is the survival-analysis CSV variant: epoch
	// seconds, hex ID, DLC, one contiguous hex payload field, optional
	// label column.
	DialectSurvival
	// DialectOTIDS is the OTIDS candump-like log: keyword-tagged
	// "Timestamp: <sec> ID: <hex> 000 DLC: <n> <bytes...>" lines with
	// no ground-truth labels.
	DialectOTIDS
)

// Dialects lists every importable dialect, in presentation order.
func Dialects() []Dialect {
	return []Dialect{DialectHCRL, DialectSurvival, DialectOTIDS}
}

// String returns the canonical lowercase name used by flags and Sniff
// errors.
func (d Dialect) String() string {
	switch d {
	case DialectHCRL:
		return "hcrl"
	case DialectSurvival:
		return "survival"
	case DialectOTIDS:
		return "otids"
	default:
		return "unknown"
	}
}

// Describe returns a one-line human description of the dialect's row
// grammar, used by canids -list-dialects.
func (d Dialect) Describe() string {
	switch d {
	case DialectHCRL:
		return "HCRL car-hacking CSV: epoch,id,dlc,byte0,..,byteN[,label] — one column per payload byte; label R/T, 0/1 or Normal/Attack (absent in attack-free captures)"
	case DialectSurvival:
		return "HCRL survival-analysis CSV: epoch,id,dlc,payloadhex[,label] — contiguous hex payload field"
	case DialectOTIDS:
		return "OTIDS candump-like log: 'Timestamp: <sec> ID: <hex> 000 DLC: <n> <bytes...>' — keyword-tagged, no ground-truth labels"
	default:
		return "unknown dialect"
	}
}

// ParseDialect maps a flag value to a Dialect. The error lists the
// supported names.
func ParseDialect(s string) (Dialect, error) {
	for _, d := range Dialects() {
		if strings.EqualFold(s, d.String()) {
			return d, nil
		}
	}
	return DialectUnknown, fmt.Errorf("dataset: unknown dialect %q (supported: %s)", s, SupportedNames())
}

// SupportedNames returns the comma-separated dialect names, for error
// messages and usage strings.
func SupportedNames() string {
	names := make([]string, 0, len(Dialects()))
	for _, d := range Dialects() {
		names = append(names, d.String())
	}
	return strings.Join(names, ", ")
}

// SniffBytes is how much of a file Sniff needs at most to classify it.
const SniffBytes = 8 << 10

// Sniff classifies a capture sample by majority vote over its first
// data lines. Blank lines, comment lines and a leading header row are
// ignored; a possibly-truncated final line is not voted on. The vote
// makes classification robust to a few malformed rows while staying a
// deterministic function of the sample. An undecidable sample (no
// votes, or a tie) returns an error naming the supported dialects.
func Sniff(sample []byte) (Dialect, error) {
	sc := bufio.NewScanner(bytes.NewReader(sample))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<10)
	votes := map[Dialect]int{}
	seen := 0
	var lines []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
	}
	// A sample cut off mid-file may end in a partial line; never vote
	// on it.
	if len(sample) >= SniffBytes && len(lines) > 0 && !bytes.HasSuffix(bytes.TrimRight(sample, " \t"), []byte("\n")) {
		lines = lines[:len(lines)-1]
	}
	for _, line := range lines {
		if seen >= 32 {
			break
		}
		if looksLikeHeader(line) {
			continue
		}
		seen++
		if d := classifyLine(line); d != DialectUnknown {
			votes[d]++
		}
	}
	best, bestN, tie := DialectUnknown, 0, false
	for _, d := range Dialects() {
		switch n := votes[d]; {
		case n > bestN:
			best, bestN, tie = d, n, false
		case n == bestN && n > 0:
			tie = true
		}
	}
	if bestN == 0 || tie {
		return DialectUnknown, fmt.Errorf("dataset: cannot determine dialect from sample (supported: %s; use an explicit dialect override)", SupportedNames())
	}
	return best, nil
}

// classifyLine votes one data line toward a dialect, or DialectUnknown
// when the line fits none (or ambiguously fits several).
func classifyLine(line string) Dialect {
	if strings.HasPrefix(strings.ToLower(line), "timestamp:") {
		return DialectOTIDS
	}
	if !strings.Contains(line, ",") {
		return DialectUnknown
	}
	fields := splitCSV(line)
	if len(fields) < 4 {
		return DialectUnknown
	}
	if _, err := parseEpoch(fields[0]); err != nil {
		return DialectUnknown
	}
	dlc, err := strconv.Atoi(fields[1+1])
	if err != nil || dlc < 0 {
		return DialectUnknown
	}
	rest := len(fields) - 3
	perByte := rest == dlc || rest == dlc+1   // one column per byte, optional label
	contiguous := (rest == 1 || rest == 2) && // one payload field, optional label
		len(fields[3]) == 2*dlc
	switch {
	case perByte && contiguous:
		// dlc<=1 rows satisfy both grammars; don't vote on them.
		return DialectUnknown
	case contiguous:
		return DialectSurvival
	case perByte:
		return DialectHCRL
	default:
		return DialectUnknown
	}
}

// looksLikeHeader reports whether a line is a column-name header rather
// than data: its first field is non-numeric and mentions a time column.
func looksLikeHeader(line string) bool {
	first := line
	if i := strings.IndexAny(line, ", \t"); i >= 0 {
		first = line[:i]
	}
	first = strings.TrimSpace(first)
	// OTIDS data lines open with a "Timestamp:" tag; the colon rules
	// them out as CSV column headers.
	if strings.HasSuffix(first, ":") {
		return false
	}
	if _, err := strconv.ParseFloat(first, 64); err == nil {
		return false
	}
	return strings.Contains(strings.ToLower(first), "time")
}

// DefaultJitter is the reorder horizon applied when Options.Jitter is
// zero: real captures wobble by the odd logging-stack preemption, not
// by seconds.
const DefaultJitter = 10 * time.Millisecond

// DefaultChannel is the channel stamped on imported records when
// Options.Channel is empty; the dialects themselves carry no bus name.
const DefaultChannel = "can0"

// Options tunes an Importer.
type Options struct {
	// Channel names the bus channel stamped on every record; empty
	// means DefaultChannel.
	Channel string
	// Jitter is the reorder horizon: a row may time-regress up to this
	// far behind the newest row seen and still be sorted into place.
	// Zero means DefaultJitter; negative disables reordering (any
	// regression is handled per the accounting mode).
	Jitter time.Duration
	// Strict fails the stream on the first malformed or unplaceable
	// row instead of skipping and counting it.
	Strict bool
}

// Stats is the exact row accounting of one import. After the stream
// ends, Imported + Skipped == Rows always holds; Skipped includes Late.
type Stats struct {
	// Rows is the number of data rows encountered (headers, blanks and
	// comments excluded).
	Rows int
	// Imported is the number of rows released as records.
	Imported int
	// Skipped is the number of rows dropped: malformed rows plus Late.
	Skipped int
	// Repaired is the number of imported rows whose DLC/payload
	// mismatch was repaired toward the bytes actually present.
	Repaired int
	// Late is the number of rows dropped because they regressed beyond
	// the jitter horizon.
	Late int
	// Attacks is the number of imported rows labeled as injected.
	Attacks int
	// Labeled reports whether any row carried an explicit ground-truth
	// label column.
	Labeled bool
}
