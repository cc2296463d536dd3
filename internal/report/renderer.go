package report

import "svtsim/internal/exp"

// Renderer renders the paper's tables and figures from one experiment
// session: every cell it computes runs through that session's worker
// pool with the session's observability, fault, and topology settings.
// The zero Renderer is not usable; construct one with NewRenderer.
type Renderer struct {
	s *exp.Session
}

// NewRenderer binds a renderer to a session.
func NewRenderer(s *exp.Session) *Renderer { return &Renderer{s: s} }
