package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerClosesStalledHeaders opens a connection that sends half a
// request header and then nothing: the server must hang up once the
// header deadline passes instead of holding the connection forever.
func TestServerClosesStalledHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(ln.Addr().String(), http.NotFoundHandler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still held the stalled connection after %v", time.Since(start).Round(time.Second))
	}
	if elapsed := time.Since(start); elapsed < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header deadline", elapsed, readHeaderTimeout)
	}
}
