package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/snet"
)

// TestHTTPOneShotShutdown: Shutdown during an /api/run whose box ignores
// cancellation returns within a second, and so does the request.  Once the
// box returns, the run's records and goroutines are gone.
func TestHTTPOneShotShutdown(t *testing.T) {
	goroutines := goroutineCount()
	ledgerAtBase := arenaLedger(t)
	entered, gate := make(chan struct{}), make(chan struct{})
	svc := New()
	svc.Register("stuck", "", Options{}, func(Options) (snet.Node, error) {
		first := true
		return snet.NewBox("stuck", snet.MustParseSignature("(<n>) -> (<n>)"),
			func(args []any, out *snet.Emitter) error {
				if first {
					first = false
					close(entered)
					<-gate // the run's cancellation goes unheeded
				}
				return out.Out(1, args[0].(int))
			}), nil
	}, nil)

	replied := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		body := `{"net":"stuck","wait":"10s","records":[{"tags":{"n":1}},{"tags":{"n":2}},{"tags":{"n":3}}]}`
		svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/run", strings.NewReader(body)))
		replied <- rec.Code
	}()
	<-entered
	begun := time.Now()
	shut := make(chan struct{})
	go func() {
		svc.Shutdown()
		close(shut)
	}()
	for what, done := range map[string]<-chan struct{}{"Shutdown": shut, "the request": replyOf(replied)} {
		select {
		case <-done:
			if d := time.Since(begun); d > time.Second {
				t.Errorf("%s returned %v after Shutdown began, want within 1s", what, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return", what)
		}
	}
	close(gate)
	<-shut
	ledgerAtBase("a run cut by Shutdown")
	waitForGoroutines(t, goroutines)
}

// replyOf closes the returned channel once a status arrives on code.
func replyOf(code <-chan int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		<-code
		close(done)
	}()
	return done
}
