package egress

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"ode/internal/fault"
	"ode/internal/store"
)

// cursorCompactAt bounds the cursor file: once it holds this many
// entries, Save rewrites it to just the latest one (atomically, via
// temp file + rename).
const cursorCompactAt = 512

// Cursor is a durable delivery cursor: an append-only file of framed
// firing records, each marking "everything through this record has
// been delivered". Appending is cheap (one small write + sync);
// recovery takes the last intact entry and discards any torn tail —
// losing a cursor write is always safe, it only means redelivery,
// which the receiver's idempotency-key dedupe absorbs.
type Cursor struct {
	path    string
	f       *os.File
	faults  *fault.Registry // nil outside the simulation harness
	goodLen int64           // clean byte length; torn bytes past it are overwritten
	entries int
	last    store.FiringRecord
	have    bool
	saves   uint64
}

// OpenCursor opens (creating if absent) the cursor file at path. A
// torn or corrupt tail — the residue of a crash mid-save — is
// discarded and truncated away; the cursor resumes from the last
// intact entry.
func OpenCursor(path string, faults *fault.Registry) (*Cursor, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("egress: cursor dir: %w", err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("egress: read cursor: %w", err)
	}
	c := &Cursor{path: path, faults: faults}
	for len(data) > int(c.goodLen) {
		rec, n, derr := DecodeRecord(data[c.goodLen:])
		if derr != nil {
			// Torn tail (crash mid-save) or garbage left by a torn
			// write later overwritten partially: either way the clean
			// prefix is the cursor's truth and the tail is discarded.
			break
		}
		c.last, c.have = rec, true
		c.entries++
		c.goodLen += int64(n)
	}
	if int64(len(data)) > c.goodLen {
		if err := os.Truncate(path, c.goodLen); err != nil {
			return nil, fmt.Errorf("egress: repair cursor tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("egress: open cursor: %w", err)
	}
	c.f = f
	return c, nil
}

// Last returns the last durably saved record (ok false if none).
func (c *Cursor) Last() (store.FiringRecord, bool) { return c.last, c.have }

// Saves returns how many saves have succeeded since open.
func (c *Cursor) Saves() uint64 { return c.saves }

// Save durably records that everything through rec has been
// delivered. On failure — including an injected torn write — the
// cursor's in-memory state is unchanged and the next Save overwrites
// the torn bytes, so the file never accumulates garbage between
// entries.
func (c *Cursor) Save(rec store.FiringRecord) error {
	if c.entries >= cursorCompactAt {
		if err := c.compact(rec); err != nil {
			return err
		}
		c.last, c.have = rec, true
		c.saves++
		return nil
	}
	b := AppendRecord(nil, rec)
	if c.faults != nil {
		// EgressCursor: a plain plan fails before any byte is written;
		// an ArmTear plan persists a torn prefix the next open must
		// detect and discard.
		if n, err := c.faults.CheckTear(fault.EgressCursor, len(b)); err != nil {
			if n > 0 {
				if _, werr := c.f.WriteAt(b[:n], c.goodLen); werr != nil {
					return fmt.Errorf("egress: write cursor: %w", werr)
				}
				if serr := c.f.Sync(); serr != nil {
					return fmt.Errorf("egress: sync cursor: %w", serr)
				}
			}
			return fmt.Errorf("egress: write cursor: %w", err)
		}
	}
	if _, err := c.f.WriteAt(b, c.goodLen); err != nil {
		return fmt.Errorf("egress: write cursor: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("egress: sync cursor: %w", err)
	}
	c.goodLen += int64(len(b))
	c.entries++
	c.last, c.have = rec, true
	c.saves++
	return nil
}

// compact rewrites the cursor file to hold only rec, atomically.
func (c *Cursor) compact(rec store.FiringRecord) error {
	b := AppendRecord(nil, rec)
	tmp, err := os.CreateTemp(filepath.Dir(c.path), "cursor-*")
	if err != nil {
		return fmt.Errorf("egress: cursor temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("egress: write cursor temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("egress: sync cursor temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("egress: close cursor temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		return fmt.Errorf("egress: publish cursor: %w", err)
	}
	if err := store.SyncDir(filepath.Dir(c.path)); err != nil {
		return fmt.Errorf("egress: sync cursor dir: %w", err)
	}
	f, err := os.OpenFile(c.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("egress: reopen cursor: %w", err)
	}
	c.f.Close()
	c.f = f
	c.goodLen = int64(len(b))
	c.entries = 1
	return nil
}

// Close releases the file handle.
func (c *Cursor) Close() error {
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
