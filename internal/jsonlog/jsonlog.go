// Package jsonlog holds the repo's append-only JSONL log discipline,
// shared by the model store's version log and the daemon's job journal:
// one JSON document per line, appended in a single Write call, replayed
// line by line on open. The crash contract is crash-only: an append torn
// mid-line by a kill or power loss is dropped on the next replay with the
// preceding history intact, while damage anywhere before the final line is
// a typed corruption error — silent truncation in the middle of history is
// never repaired over.
package jsonlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// ErrCorrupt reports an unparseable line before the end of a log — damage
// that cannot be explained by a single torn append. Matchable with
// errors.Is through whatever error a caller wraps around it.
var ErrCorrupt = errors.New("jsonlog: log corrupt")

// maxLineBytes bounds one log line (and the scanner buffer) at 1 MiB;
// every record in this repo is a few hundred bytes.
const maxLineBytes = 1 << 20

// Append marshals v and appends it to path as one line. The line lands in
// a single Write call, which keeps the append all-or-nothing on local
// filesystems; Replay drops a torn tail regardless, so a crash between
// the open and the write loses at most the entry being written. The line
// starts at lineBoundary, so it never fuses with an earlier torn tail.
func Append(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("jsonlog: marshaling entry: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("jsonlog: %w", err)
	}
	end, err := lineBoundary(f)
	if err == nil {
		_, err = f.WriteAt(append(line, '\n'), end)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("jsonlog: appending: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jsonlog: %w", err)
	}
	return nil
}

// lineBoundary returns where the next line of f starts. A final fragment
// without a newline is truncated away, or newline-terminated when it
// decodes — exactly the tails Replay drops and keeps.
func lineBoundary(f *os.File) (int64, error) {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return 0, err
	}
	last := []byte{0}
	if _, err := f.ReadAt(last, fi.Size()-1); err != nil || last[0] == '\n' {
		return fi.Size(), err
	}
	data, err := io.ReadAll(io.NewSectionReader(f, 0, fi.Size()))
	if err != nil {
		return 0, err
	}
	end := int64(bytes.LastIndexByte(data, '\n') + 1)
	if json.Valid(data[end:]) {
		_, err := f.WriteAt([]byte{'\n'}, fi.Size())
		return fi.Size() + 1, err
	}
	return end, f.Truncate(end)
}

// Replay decodes every non-blank line of path into a T and hands it to fn
// in file order, with line numbered from 1. A missing file replays
// nothing. The final line failing to decode is dropped silently — the
// crash-mid-append tear — while an undecodable earlier line (or a scanner
// failure, e.g. a line past the 1 MiB bound) returns an error wrapping
// ErrCorrupt. An error from fn stops the replay and is returned as-is, so
// callers keep their own typed errors.
func Replay[T any](path string, fn func(line int, v T) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jsonlog: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, maxLineBytes), maxLineBytes)
	var lines []string
	for sc.Scan() {
		if text := strings.TrimSpace(sc.Text()); text != "" {
			lines = append(lines, text)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	for i, text := range lines {
		var v T
		if err := json.Unmarshal([]byte(text), &v); err != nil {
			if i == len(lines)-1 {
				return nil // torn tail: the crash-mid-append case
			}
			return fmt.Errorf("%w: line %d: %v", ErrCorrupt, i+1, err)
		}
		if err := fn(i+1, v); err != nil {
			return err
		}
	}
	return nil
}
