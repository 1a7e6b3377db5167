package server

import (
	"io"
	"net/http"
	"sync"

	"fepia/internal/spec"
)

// maxPooledBody caps the buffers bodyPool keeps and the bytes a pooled
// workspace may retain: one huge batch request or answer must not pin
// its memory for the life of the process.
const maxPooledBody = 1 << 20

// bodyPool recycles the per-request buffers request bodies are read
// into and responses are encoded into.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf takes a buffer from bodyPool; putBuf returns it.
func getBuf() *[]byte { return bodyPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBody {
		return
	}
	*b = (*b)[:0]
	bodyPool.Put(b)
}

// workspacePool recycles the request workspaces /v1/analyze and
// /v1/batch decode, analyse and encode into.
var workspacePool = sync.Pool{New: func() any { return new(spec.Workspace) }}

// getWorkspace takes a workspace from workspacePool; putWorkspace drops
// one that grew past maxPooledBody and resets and returns the others.
func getWorkspace() *spec.Workspace { return workspacePool.Get().(*spec.Workspace) }

func putWorkspace(w *spec.Workspace) {
	if w.Retained() > maxPooledBody {
		return
	}
	w.Reset()
	workspacePool.Put(w)
}

// appendAll appends what rd yields up to EOF to dst, growing it the way
// io.ReadAll grows a fresh slice.
func appendAll(dst []byte, rd io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := rd.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// encodeBody renders v into the pooled buffer b (see spec.AppendJSON)
// and returns the bytes to write.
func encodeBody(b *[]byte, v any, indent bool) ([]byte, error) {
	out, err := spec.AppendJSON((*b)[:0], v, indent)
	*b = out
	return out, err
}

// writeJSON writes a 2xx JSON document, two-space indented.
func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, v, true)
}

// writeError writes the ErrorJSON envelope, compact.
func writeError(w http.ResponseWriter, status int, e spec.ErrorJSON) {
	writeBody(w, status, e, false)
}

// writeBody writes the status line and v's JSON encoding. A value that
// cannot be encoded leaves the body empty, as json.Encoder did.
func writeBody(w http.ResponseWriter, status int, v any, indent bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b := getBuf()
	defer putBuf(b)
	if out, err := encodeBody(b, v, indent); err == nil {
		_, _ = w.Write(out)
	}
}
