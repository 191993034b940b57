package daemon

import "github.com/portus-sys/portus/internal/index"

// ContentCRC hashes a slot the way commit does when no flush stamped it.
func (d *Daemon) ContentCRC(m *index.Model, slot int) uint64 { return d.contentCRC(m, slot) }
