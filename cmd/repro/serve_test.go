package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeClosesStalledHeaders: a connection that never finishes its
// request headers is closed once serveHeaderTimeout has passed, while whole
// requests and responses stay unbounded so long results streams survive.
func TestServeClosesStalledHeaders(t *testing.T) {
	t.Parallel()
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v: a results stream must not be cut", hs.ReadTimeout, hs.WriteTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout %v: idle kept-alive connections are never closed", hs.IdleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }() // ErrServerClosed once the deferred Close runs
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// No blank line: the headers never complete.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: repro\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(start.Add(serveHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("connection still open %v after stalling its headers: %v", elapsed.Round(time.Millisecond), err)
	}
	if elapsed < serveHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout (server sent %q)", elapsed, serveHeaderTimeout, got)
	}
}
