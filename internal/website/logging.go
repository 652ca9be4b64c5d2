package website

import "log/slog"

// The site logs through log/slog: every access-log record carries the
// request ID, method, path, normalized route, status and duration as typed
// attributes, and panic reports carry the recovered value. SetSlogger
// plugs in any slog handler (cmd/thalia-server uses a text handler on
// stderr).

// logMsg* are the messages of access-log records and panic reports.
const (
	logMsgRequest = "request"
	logMsgPanic   = "panic"
)

// SetSlogger directs the site's structured log to l.
func (s *Site) SetSlogger(l *slog.Logger) { s.logger = l }
