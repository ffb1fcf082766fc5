// Seeded streamdiscard violations and non-violations: run loops that do
// and do not drain their reader on early exit.
package core

type item struct{ rec *int }
type streamReader struct{}
type streamWriter struct{}

func (*streamReader) recv() (item, bool)   { return item{}, false }
func (*streamReader) Discard()             {}
func (*streamWriter) send(item) bool       { return false }
func (*streamWriter) close()               {}
func handoff(*streamReader, *streamWriter) {}

// leakyRun returns mid-loop without Discard: the violation.
func leakyRun(in *streamReader, out *streamWriter) {
	defer out.close()
	for {
		it, ok := in.recv()
		if !ok {
			return // exempt: the stream is closed and drained
		}
		if !out.send(it) {
			return // want: return without in.Discard()
		}
	}
}

// cleanRun discards before every early return: no finding.
func cleanRun(in *streamReader, out *streamWriter) {
	defer out.close()
	for {
		it, ok := in.recv()
		if !ok {
			return
		}
		if !out.send(it) {
			in.Discard()
			return
		}
	}
}

// deferredRun covers all paths with a deferred Discard: no finding.
func deferredRun(in *streamReader, out *streamWriter) {
	defer in.Discard()
	defer out.close()
	if it, ok := in.recv(); ok && out.send(it) {
		return
	}
}

// wiringRun never consumes from the reader itself — it hands both ends to
// another stage, which then owns the drain obligation: no finding.
func wiringRun(in *streamReader, out *streamWriter) {
	handoff(in, out)
}

// dispatchRun is fanout.run's shape: ok is reassigned from the send after
// recv, so `!ok` no longer means the stream is drained — a refused send
// returns with upstream senders still blocked: the second violation.
func dispatchRun(in *streamReader, out *streamWriter) {
	defer out.close()
	for {
		it, ok := in.recv()
		switch {
		case !ok:
		default:
			ok = out.send(it)
		}
		if !ok {
			return // want: return without in.Discard()
		}
	}
}
