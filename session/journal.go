package session

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// journalExt is the on-disk suffix of session journals.
const journalExt = ".journal"

// nameRE restricts session names to filesystem- and URL-safe tokens, so
// the name can double as the journal filename and the path segment of
// the HTTP API.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ValidName reports whether name is usable as a session name.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// journalWriter appends JSON-lines events to a session's journal file —
// the JournalWriter of DirStore.  Each append encodes its line with
// Event.AppendJSON into the writer's own buffer, reused across appends,
// and hands it to the file in one write before returning, so a killed
// process loses at most the event being written — never a previously
// acknowledged one.
type journalWriter struct {
	f    *os.File
	line []byte
}

// maxKeptLine bounds the line buffer a journalWriter keeps between
// appends: a snapshot carrying a large ring is encoded into a buffer
// dropped afterwards, not held for the session's lifetime.
const maxKeptLine = 64 << 10

func journalPath(dir, name string) string {
	return filepath.Join(dir, name+journalExt)
}

func removeJournal(dir, name string) error {
	return os.Remove(journalPath(dir, name))
}

// createJournal opens a fresh journal for a new session; an existing
// file is a name conflict (possibly a session from a previous run that
// Restore would have loaded).
func createJournal(dir, name string) (*journalWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(journalPath(dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("session: journal for %q already exists (restore or delete it first)", name)
		}
		return nil, err
	}
	return &journalWriter{f: f}, nil
}

// openJournal reopens an existing journal for appending (after Restore).
func openJournal(dir, name string) (*journalWriter, error) {
	f, err := os.OpenFile(journalPath(dir, name), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &journalWriter{f: f}, nil
}

// Append encodes one event line and writes it to the file.
func (w *journalWriter) Append(ev Event) error {
	if err := checkTime(ev.Time); err != nil {
		return err
	}
	w.line = append(ev.AppendJSON(w.line[:0]), '\n')
	_, err := w.f.Write(w.line)
	if cap(w.line) > maxKeptLine {
		w.line = nil
	}
	return err
}

// Sync forces the journal to stable storage.
func (w *journalWriter) Sync() error { return w.f.Sync() }

// Close syncs and releases the file handle, so a cleanly closed
// journal survives host death, not just process death.
func (w *journalWriter) Close() error {
	serr := w.f.Sync()
	cerr := w.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// readJournal loads every well-formed event of a journal file.  A
// truncated trailing line (the process died mid-write) is tolerated;
// malformed leading content is an error.
func readJournal(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			// Only the final line may be garbage (a torn write).
			if sc.Scan() {
				return nil, fmt.Errorf("session: corrupt journal %s: %w", path, err)
			}
			break
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("session: journal %s holds no events", path)
	}
	return events, nil
}
