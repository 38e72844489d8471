package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"hemlock/internal/netshm"
)

// ErrNoShm is returned when /api/txn is used on a daemon whose machine has
// no netshm endpoint attached.
var ErrNoShm = errors.New("server: no networked shared memory on this machine")

// SetShm attaches the machine's netshm endpoint, enabling /api/txn (and
// installing the guest txn syscalls into the kernel).
func (s *Server) SetShm(n *netshm.Node) {
	s.world.Lock()
	defer s.world.Unlock()
	s.shm = n
	n.InstallTxn()
}

// TxnRead names one word to read into the transaction's read set.
type TxnRead struct {
	Path string `json:"path"`
	Off  uint32 `json:"off"`
}

// TxnWrite stages one word store.
type TxnWrite struct {
	Path  string `json:"path"`
	Off   uint32 `json:"off"`
	Value uint32 `json:"value"`
}

// TxnRequest is POST /api/txn: a TL2-style transaction against the
// machine's replicated segments. Reads record version triples for
// validate-on-commit; writes apply atomically — one replication
// generation per segment.
type TxnRequest struct {
	Reads  []TxnRead  `json:"reads,omitempty"`
	Writes []TxnWrite `json:"writes,omitempty"`
}

// TxnResponse reports the commit's fate. State is "committed", "aborted"
// (validation conflict — re-run), or "pending" (forwarded to a remote
// home; poll GET /api/txn?txid=).
type TxnResponse struct {
	State  string   `json:"state"`
	Txid   uint64   `json:"txid,omitempty"`
	Values []uint32 `json:"values,omitempty"` // read results, in request order
}

// Txn runs one transaction: the programmatic twin of POST /api/txn.
func (s *Server) Txn(req *TxnRequest, timeout time.Duration) (*TxnResponse, error) {
	var resp *TxnResponse
	err := s.do("txn", timeout, func() error {
		if s.shm == nil {
			return ErrNoShm
		}
		t := s.shm.Begin()
		vals := make([]uint32, 0, len(req.Reads))
		for _, rd := range req.Reads {
			b, err := t.Read(rd.Path, rd.Off, 4)
			if err != nil {
				return err
			}
			vals = append(vals, binary.BigEndian.Uint32(b))
		}
		for _, wr := range req.Writes {
			t.WriteWord(wr.Path, wr.Off, wr.Value)
		}
		txid, err := t.Commit()
		switch {
		case errors.Is(err, netshm.ErrTxnConflict):
			resp = &TxnResponse{State: "aborted", Values: vals}
		case err != nil:
			return err
		case txid != 0:
			resp = &TxnResponse{State: "pending", Txid: txid, Values: vals}
		default:
			resp = &TxnResponse{State: "committed", Values: vals}
		}
		return nil
	})
	return resp, err
}

// TxnStatus polls a forwarded transaction: GET /api/txn?txid=.
func (s *Server) TxnStatus(txid uint64, timeout time.Duration) (*TxnResponse, error) {
	var resp *TxnResponse
	err := s.do("txn_status", timeout, func() error {
		if s.shm == nil {
			return ErrNoShm
		}
		resp = &TxnResponse{State: s.shm.TxnStatus(txid).String(), Txid: txid}
		return nil
	})
	return resp, err
}

func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request, q url.Values) (replyBody, error) {
	if r.Method == http.MethodGet {
		timeout, err := s.timeoutOf(q)
		if err != nil {
			return nil, err
		}
		txid, err := strconv.ParseUint(q.Get("txid"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: txid: %w", ErrBadRequest, err)
		}
		return s.TxnStatus(txid, timeout)
	}
	var req TxnRequest
	timeout, err := s.readRequest(w, r, q, &req, "GET, POST")
	if err != nil {
		return nil, err
	}
	return s.Txn(&req, timeout)
}
