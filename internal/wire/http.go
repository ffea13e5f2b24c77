package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"dpr/internal/p2p"
	"dpr/internal/rng"
	"dpr/internal/telemetry"
)

// batchSeqContentType marks a POST body carrying a sequenced batch
// (sender + sequence-number prefix); plain application/octet-stream
// bodies are accepted as legacy unsequenced batches.
const batchSeqContentType = "application/x-dpr-batch-seq"

// HTTPPeer is the paper's section 8 scenario taken literally: a web
// server whose HTTP interface is augmented with pagerank endpoints.
//
//	POST /pagerank/updates   binary update batch (same codec as TCP)
//	GET  /pagerank/counters  16-byte sent/processed snapshot
//	GET  /pagerank/ranks     binary (doc, rank) pairs
//
// Web servers exchange update batches with plain POSTs; no P2P overlay
// software is required, which is exactly the paper's argument for an
// Internet-scale deployment. Transient failures (connection errors,
// 5xx responses) are retried with capped exponential backoff; posts
// carry per-destination sequence numbers so a retried request whose
// first copy actually arrived is folded exactly once.
type HTTPPeer struct {
	cfg   PeerConfig
	retry RetryPolicy
	rk    *ranker

	srv    *http.Server
	ln     net.Listener
	client *http.Client
	peers  []string // peer id -> base URL

	senders map[p2p.PeerID]*postQueue
	sendMu  sync.Mutex
	rqMu    sync.Mutex
	rq      *p2p.RetryQueue

	inbox chan inItem
	quit  chan struct{}
	wg    sync.WaitGroup

	// lastSeq suppresses duplicate posts per sender; owned by
	// processLoop.
	lastSeq map[p2p.PeerID]uint64

	// m holds the peer's registry-backed instruments (the HTTP peer
	// uses the subset that applies: no reconnect/redelivery tracking,
	// since HTTP posts are per-request). reg is their registry, trace
	// the optional convergence-event ring.
	m     peerMetrics
	reg   *telemetry.Registry
	trace *telemetry.Trace
}

// postQueue serializes POSTs to one destination. Pending updates live
// delta-coalesced in the peer's retry queue so sender-side state stays
// bounded no matter how long the destination is unreachable; each
// drained batch becomes one sequenced request, amortizing HTTP
// round-trip overhead the way the paper's per-pass batching does.
type postQueue struct {
	wake    chan struct{}
	rng     *rng.Rand // backoff jitter; used only by its postLoop
	nextSeq uint64
}

// NewHTTPPeer starts an HTTP server on 127.0.0.1 (ephemeral port).
func NewHTTPPeer(cfg PeerConfig) (*HTTPPeer, error) {
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-3
	}
	if cfg.Graph == nil || cfg.DocPeer == nil {
		return nil, fmt.Errorf("wire: nil graph or placement")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.InboxCap <= 0 {
		cfg.InboxCap = defaultInboxCap
	}
	m := newPeerMetrics(cfg.Registry)
	p := &HTTPPeer{
		cfg:     cfg,
		retry:   cfg.Retry.withDefaults(),
		rk:      newRanker(cfg, m.rankMass),
		ln:      ln,
		client:  client,
		senders: make(map[p2p.PeerID]*postQueue),
		rq:      p2p.NewRetryQueue(),
		inbox:   make(chan inItem, cfg.InboxCap),
		quit:    make(chan struct{}),
		lastSeq: make(map[p2p.PeerID]uint64),
		m:       m,
		reg:     cfg.Registry,
		trace:   cfg.Trace,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/pagerank/updates", p.handleUpdates)
	mux.HandleFunc("/pagerank/counters", p.handleCounters)
	mux.HandleFunc("/pagerank/ranks", p.handleRanks)
	p.srv = &http.Server{Handler: mux}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.srv.Serve(ln) // returns on Close
	}()
	return p, nil
}

// URL returns the peer's base URL.
func (p *HTTPPeer) URL() string { return "http://" + p.ln.Addr().String() }

// SetPeers installs the peer URL table (indexed by PeerID).
func (p *HTTPPeer) SetPeers(urls []string) { p.peers = urls }

// Counters reports (sent, processed).
func (p *HTTPPeer) Counters() (uint64, uint64) {
	return p.m.sent.Load(), p.m.processed.Load()
}

// Stats reports the peer's fault-tolerance counters, read from the
// telemetry registry. Reconnects and redeliveries stay zero: HTTP
// posts are per-request, so there is no connection to re-establish.
func (p *HTTPPeer) Stats() PeerStats { return p.m.stats() }

// Registry exposes the registry holding this peer's instruments.
func (p *HTTPPeer) Registry() *telemetry.Registry { return p.reg }

// event records a convergence-trace event when a trace is attached.
//
//dpr:hotpath
func (p *HTTPPeer) event(typ telemetry.EventType, value float64, aux int64) {
	if p.trace != nil {
		p.trace.Record(typ, int32(p.cfg.ID), -1, value, aux)
	}
}

// Start launches processing and performs the initial push.
func (p *HTTPPeer) Start() {
	p.wg.Add(1)
	go p.processLoop()
	if self := p.ship(p.rk.initialOut(), true); len(self) > 0 {
		select {
		case p.inbox <- inItem{from: p.cfg.ID, us: self}:
		case <-p.quit:
		}
	}
}

// Close shuts the server and workers down.
func (p *HTTPPeer) Close() {
	select {
	case <-p.quit:
	default:
		close(p.quit)
	}
	p.srv.Close()
	p.wg.Wait()
}

func (p *HTTPPeer) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFrameBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var it inItem
	if r.Header.Get("Content-Type") == batchSeqContentType {
		from, seq, us, err := decodeBatchSeq(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		it = inItem{from: from, seq: seq, seqed: true, us: us}
	} else {
		us, err := decodeBatch(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		it = inItem{us: us}
	}
	select {
	case p.inbox <- it:
		w.WriteHeader(http.StatusAccepted)
	case <-p.quit:
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
	}
}

func (p *HTTPPeer) handleCounters(w http.ResponseWriter, r *http.Request) {
	sent, processed := p.Counters()
	w.Write(encodeSnapshot(sent, processed))
}

func (p *HTTPPeer) handleRanks(w http.ResponseWriter, r *http.Request) {
	docs, ranks := p.rk.snapshotRanks()
	w.Write(encodeRanks(docs, ranks))
}

func (p *HTTPPeer) processLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case it := <-p.inbox:
			items := []inItem{it}
			for drained := false; !drained; {
				select {
				case more := <-p.inbox:
					items = append(items, more)
				default:
					drained = true
				}
			}
			var batch []p2p.Update
			for _, it := range items {
				if it.seqed {
					if it.seq <= p.lastSeq[it.from] {
						p.m.dupDropped.Add(1)
						continue // retried post whose first copy arrived
					}
					p.lastSeq[it.from] = it.seq
				}
				batch = append(batch, it.us...)
			}
			for len(batch) > 0 {
				n := len(batch) // batch may alias the outbox the fold is about to refill
				out, fwd, folded := p.rk.fold(batch)
				self := p.ship(out, true)
				if len(fwd) > 0 {
					self = append(self, p.forward(fwd)...)
				}
				p.m.deltaFolded.Add(folded)
				p.m.processed.Add(uint64(n))
				p.event(telemetry.EvFold, folded, int64(n))
				batch = self
			}
		}
	}
}

// ship transmits batches, returning the self-directed ones (the
// outbox's own slot: see Peer.handle). originated marks freshly minted
// deltas, which count toward the shipped-mass conservation total.
func (p *HTTPPeer) ship(out outbox, originated bool) []p2p.Update {
	var self []p2p.Update
	shipped, n := 0.0, 0
	for slot, us := range out {
		if len(us) == 0 {
			continue
		}
		p.m.sent.Add(uint64(len(us)))
		if originated {
			for _, u := range us {
				shipped += u.Delta
			}
			n += len(us)
		}
		if dest := p2p.PeerID(slot - 1); dest == p.cfg.ID {
			self = us
		} else {
			p.post(dest, us)
		}
	}
	if n > 0 {
		p.m.deltaShipped.Add(shipped)
		p.event(telemetry.EvShip, shipped, int64(n))
	}
	return self
}

// forward re-ships updates that arrived for documents this peer does
// not own (HTTP clusters have static membership, so this only fires on
// a misconfigured placement table). Forwarded mass was counted shipped
// at its origin, so only the send counter moves here.
func (p *HTTPPeer) forward(fwd []p2p.Update) []p2p.Update {
	out, dropped := p.rk.forwardOut(fwd)
	p.m.misdropped.Add(uint64(dropped))
	p.m.forwarded.Add(uint64(len(fwd)))
	return p.ship(out, false)
}

// post coalesces one batch into the destination's pending queue and
// wakes its poster. Updates absorbed by coalescing count as processed
// on the spot (their delta survives inside the merged entry).
func (p *HTTPPeer) post(dest p2p.PeerID, us []p2p.Update) {
	merged := 0
	p.rqMu.Lock()
	for _, u := range us {
		if p.rq.DeferMerge(dest, u) {
			merged++
		}
	}
	p.rqMu.Unlock()
	if merged > 0 {
		p.m.coalesced.Add(uint64(merged))
		p.m.processed.Add(uint64(merged))
	}
	p.sendMu.Lock()
	q, ok := p.senders[dest]
	if !ok {
		q = &postQueue{
			wake:    make(chan struct{}, 1),
			rng:     rng.New(uint64(p.cfg.ID)<<32 ^ uint64(uint32(dest)) ^ 0x7f4a7c15),
			nextSeq: 1,
		}
		p.senders[dest] = q
		p.wg.Add(1)
		go p.postLoop(dest, q)
	}
	p.sendMu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// postLoop drains one destination's queue, retrying each sequenced
// request with capped backoff until the server accepts it. A retried
// request whose first copy actually arrived is suppressed server-side
// by its sequence number, so transient failures can neither lose nor
// double-fold updates.
func (p *HTTPPeer) postLoop(dest p2p.PeerID, q *postQueue) {
	defer p.wg.Done()
	url := ""
	if int(dest) < len(p.peers) {
		url = p.peers[dest] + "/pagerank/updates"
	}
	for {
		select {
		case <-p.quit:
			return
		case <-q.wake:
			for {
				p.rqMu.Lock()
				us := p.rq.Drain(dest)
				p.rqMu.Unlock()
				if len(us) == 0 {
					break
				}
				if url == "" {
					// Unknown destination: account the updates as
					// consumed so the termination probe still fires.
					p.m.processed.Add(uint64(len(us)))
					continue
				}
				seq := q.nextSeq
				q.nextSeq++
				body := encodeBatchSeq(p.cfg.ID, seq, us)
				delivered, shutdown := p.postWithRetry(q, url, body)
				if shutdown {
					return
				}
				if !delivered {
					// Permanent rejection: account the updates as
					// consumed so the termination probe still fires.
					p.m.processed.Add(uint64(len(us)))
				}
			}
		}
	}
}

// postWithRetry delivers one sequenced request, retrying transient
// failures (connection errors and 5xx responses) with capped
// exponential backoff until the server answers below 500. delivered
// reports whether the request was accepted (2xx); shutdown reports the
// peer quit while retrying.
func (p *HTTPPeer) postWithRetry(q *postQueue, url string, body []byte) (delivered, shutdown bool) {
	for fails := 0; ; {
		resp, err := p.client.Post(url, batchSeqContentType, bytes.NewReader(body))
		if err == nil {
			code := resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if code < 300 {
				return true, false
			}
			if code < 500 {
				return false, false // permanent rejection
			}
		}
		fails++
		p.m.retries.Add(1)
		select {
		case <-p.quit:
			return false, true
		case <-time.After(p.retry.delay(q.rng, fails)):
		}
	}
}
