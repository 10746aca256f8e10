// Package daemon exposes a VStore++ home cloud over real TCP sockets
// using the command-packet protocol of §IV. The c4hd binary hosts the
// home cloud (its devices run in-process on the real clock, exactly as
// the paper's prototype ran every VM on one testbed); c4h is the CLI
// client. Control messages are command packets ("usually less than 50
// bytes ... use TCP/IP sockets"); object payloads follow as
// length-prefixed frames, mirroring the prototype's separation of command
// and data channels.
package daemon

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cloud4home/internal/command"
	"cloud4home/internal/core"
)

// MaxPayload bounds object payloads accepted over the wire (64 MB).
const MaxPayload = 64 << 20

// Errors returned by the client.
var (
	ErrRemote = errors.New("daemon: server reported error")
)

// Server serves one home cloud over TCP.
type Server struct {
	home *core.Home

	mu       sync.Mutex
	ln       net.Listener             // guarded by mu
	sessions map[string]*core.Session // guarded by mu; one per home node, lazily opened
	conns    sync.WaitGroup
	closed   bool // guarded by mu

	// opMu serializes operations: sessions are single-threaded, like the
	// prototype's per-VM command loop.
	opMu sync.Mutex
}

// NewServer wraps an assembled home cloud.
func NewServer(home *core.Home) *Server {
	return &Server{home: home, sessions: make(map[string]*core.Session)}
}

// Serve listens on addr until Close. It returns the bound address via
// Addr once listening.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("daemon: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("daemon: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("daemon: accept: %w", err)
		}
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

// Addr returns the listener address ("" before Serve binds).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and waits for in-flight connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.conns.Wait()
}

// session returns (opening if needed) the server-side session at the
// named home node, or any node when nodeAddr is empty.
func (s *Server) session(nodeAddr string) (*core.Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if nodeAddr == "" {
		nodes := s.home.Nodes()
		if len(nodes) == 0 {
			return nil, errors.New("daemon: home cloud has no nodes")
		}
		nodeAddr = nodes[0].Addr()
		for _, n := range nodes {
			if n.Addr() < nodeAddr {
				nodeAddr = n.Addr()
			}
		}
	}
	if sess, ok := s.sessions[nodeAddr]; ok {
		return sess, nil
	}
	node, ok := s.home.Node(nodeAddr)
	if !ok {
		return nil, fmt.Errorf("daemon: unknown home node %q", nodeAddr)
	}
	sess, err := node.OpenSession()
	if err != nil {
		return nil, err
	}
	s.sessions[nodeAddr] = sess
	return sess, nil
}

// request/response JSON bodies carried in command packet Data.

type storeReq struct {
	Name string   `json:"name"`
	Type string   `json:"type,omitempty"`
	Tags []string `json:"tags,omitempty"`
	Size int64    `json:"size"`
	// HasPayload marks that a payload frame follows the command packet;
	// otherwise the object is sparse with the declared Size.
	HasPayload bool   `json:"hasPayload"`
	Node       string `json:"node,omitempty"`
}

type storeResp struct {
	Location string `json:"location"`
	TotalMS  int64  `json:"totalMs"`
}

type fetchReq struct {
	Name string `json:"name"`
	Node string `json:"node,omitempty"`
}

type fetchResp struct {
	Size    int64  `json:"size"`
	Source  string `json:"source"`
	TotalMS int64  `json:"totalMs"`
	Sparse  bool   `json:"sparse"`
}

type processReq struct {
	Name    string `json:"name"`
	Service string `json:"service"`
	ID      uint32 `json:"id"`
	Node    string `json:"node,omitempty"`
}

type processResp struct {
	Target     string `json:"target"`
	Mode       string `json:"mode"`
	OutputSize int64  `json:"outputSize"`
	Detections int    `json:"detections"`
	MatchID    int    `json:"matchId"`
	TotalMS    int64  `json:"totalMs"`
}

type listResp struct {
	Nodes   []string `json:"nodes"`
	Objects []string `json:"objects"`
}

type nodeStats struct {
	Addr         string  `json:"addr"`
	Stores       int64   `json:"stores"`
	Fetches      int64   `json:"fetches"`
	Processes    int64   `json:"processes"`
	Deletes      int64   `json:"deletes"`
	BytesStored  int64   `json:"bytesStored"`
	BytesFetched int64   `json:"bytesFetched"`
	CPULoad      float64 `json:"cpuLoad"`
	MemFreeMB    int64   `json:"memFreeMb"`
	// Compute-plane counters (zero unless ComputePlaneConfig enables the
	// concurrent features).
	ShardsExecuted int64 `json:"shardsExecuted,omitempty"`
	OverlapSavedMS int64 `json:"overlapSavedMs,omitempty"`
	SpecLaunches   int64 `json:"specLaunches,omitempty"`
	SpecWins       int64 `json:"specWins,omitempty"`
	SpecCancels    int64 `json:"specCancels,omitempty"`
	// Fault-tolerance counters (zero unless FaultConfig enables the
	// fallback ladder / post-crash repair).
	FetchRetries     int64 `json:"fetchRetries,omitempty"`
	ObjectsRepaired  int64 `json:"objectsRepaired,omitempty"`
	ReplicasRestored int64 `json:"replicasRestored,omitempty"`
	// Federation counters (zero unless FederationConfig enables charged
	// cloud probes and erasure-coded redundancy).
	CloudProbes       int64 `json:"cloudProbes,omitempty"`
	ShardsPlaced      int64 `json:"shardsPlaced,omitempty"`
	ShardsRestored    int64 `json:"shardsRestored,omitempty"`
	ShardReconstructs int64 `json:"shardReconstructs,omitempty"`
	// City-scale counters: total metadata-routing hops, the super-peer
	// subset (zero unless ScaleConfig enables the aggregation tier), and
	// the shared membership arena gauge (whole-mesh).
	KVHops        int64 `json:"kvHops,omitempty"`
	SuperPeerHops int64 `json:"superPeerHops,omitempty"`
	ArenaBytes    int64 `json:"arenaBytes,omitempty"`
}

type statsResp struct {
	Nodes []nodeStats `json:"nodes"`
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		pkt, err := command.Read(conn)
		if err != nil {
			return // client went away or sent garbage: drop the conn
		}
		if err := s.dispatch(conn, pkt); err != nil {
			s.writeError(conn, err)
		}
	}
}

func (s *Server) dispatch(conn net.Conn, pkt *command.Packet) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	switch pkt.Type {
	case command.TypeStore:
		var req storeReq
		if err := json.Unmarshal(pkt.Data, &req); err != nil {
			return fmt.Errorf("bad store request: %w", err)
		}
		var payload []byte
		if req.HasPayload {
			var err error
			payload, err = readFrame(conn)
			if err != nil {
				return err
			}
		}
		sess, err := s.session(req.Node)
		if err != nil {
			return err
		}
		if err := sess.CreateObject(req.Name, req.Type, req.Tags); err != nil {
			return err
		}
		size := req.Size
		if payload != nil {
			size = 0
		}
		res, err := sess.StoreObject(req.Name, payload, size, core.StoreOptions{Blocking: true})
		if err != nil {
			return err
		}
		return s.writeJSON(conn, command.TypeStore, storeResp{
			Location: res.Location,
			TotalMS:  res.Total.Milliseconds(),
		}, nil)

	case command.TypeFetch:
		var req fetchReq
		if err := json.Unmarshal(pkt.Data, &req); err != nil {
			return fmt.Errorf("bad fetch request: %w", err)
		}
		sess, err := s.session(req.Node)
		if err != nil {
			return err
		}
		res, err := sess.FetchObject(req.Name)
		if err != nil {
			return err
		}
		return s.writeJSON(conn, command.TypeFetch, fetchResp{
			Size:    res.Meta.Size,
			Source:  res.Source,
			TotalMS: res.Breakdown.Total.Milliseconds(),
			Sparse:  res.Data == nil,
		}, res.Data)

	case command.TypeProcess:
		var req processReq
		if err := json.Unmarshal(pkt.Data, &req); err != nil {
			return fmt.Errorf("bad process request: %w", err)
		}
		sess, err := s.session(req.Node)
		if err != nil {
			return err
		}
		res, err := sess.FetchProcess(req.Name, req.Service, req.ID)
		if err != nil {
			return err
		}
		return s.writeJSON(conn, command.TypeProcess, processResp{
			Target:     res.Target,
			Mode:       res.Mode.String(),
			OutputSize: res.OutputSize,
			Detections: res.Detections,
			MatchID:    res.MatchID,
			TotalMS:    res.Breakdown.Total.Milliseconds(),
		}, nil)

	case command.TypeResourceUpdate:
		// "stats": per-node operation counters and machine state.
		var out statsResp
		for _, n := range s.home.Nodes() {
			ops := n.OpStats()
			out.Nodes = append(out.Nodes, nodeStats{
				Addr:              n.Addr(),
				Stores:            ops.Stores,
				Fetches:           ops.Fetches,
				Processes:         ops.Processes,
				Deletes:           ops.Deletes,
				BytesStored:       ops.BytesStored,
				BytesFetched:      ops.BytesFetched,
				CPULoad:           n.Machine().Load(),
				MemFreeMB:         n.Machine().MemFreeMB(),
				ShardsExecuted:    ops.ShardsExecuted,
				OverlapSavedMS:    ops.OverlapSaved.Milliseconds(),
				SpecLaunches:      ops.SpecLaunches,
				SpecWins:          ops.SpecWins,
				SpecCancels:       ops.SpecCancels,
				FetchRetries:      ops.FetchRetries,
				ObjectsRepaired:   ops.ObjectsRepaired,
				ReplicasRestored:  ops.ReplicasRestored,
				CloudProbes:       ops.CloudProbes,
				ShardsPlaced:      ops.ShardsPlaced,
				ShardsRestored:    ops.ShardsRestored,
				ShardReconstructs: ops.ShardReconstructs,
				KVHops:            ops.KVHops,
				SuperPeerHops:     ops.SuperPeerHops,
				ArenaBytes:        ops.ArenaBytes,
			})
		}
		return s.writeJSON(conn, command.TypeResourceUpdate, out, nil)

	case command.TypeServiceRegister:
		// "ls": enumerate nodes and objects.
		var nodes, objects []string
		for _, n := range s.home.Nodes() {
			nodes = append(nodes, n.Addr())
			objects = append(objects, n.ObjectStore().List()...)
		}
		return s.writeJSON(conn, command.TypeServiceRegister, listResp{
			Nodes:   nodes,
			Objects: objects,
		}, nil)

	default:
		return fmt.Errorf("unsupported command %s", pkt.Type)
	}
}

func (s *Server) writeJSON(conn net.Conn, t command.Type, body any, payload []byte) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp := command.Packet{Type: t, Data: data}
	if err := command.Write(conn, &resp); err != nil {
		return err
	}
	if payload != nil {
		return writeFrame(conn, payload)
	}
	return nil
}

func (s *Server) writeError(conn net.Conn, err error) {
	msg := err.Error()
	if len(msg) > command.MaxData {
		msg = msg[:command.MaxData]
	}
	pkt := command.Packet{Type: command.TypeError, Data: []byte(msg)}
	if werr := command.Write(conn, &pkt); werr != nil {
		// The reply channel itself is broken; close so the client sees a
		// hard failure instead of a hung read (the handler's own close is
		// idempotent).
		_ = conn.Close()
	}
}

// readFrame reads one length-prefixed payload frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("daemon: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint64(hdr[:])
	if n > MaxPayload {
		return nil, fmt.Errorf("daemon: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("daemon: read frame body: %w", err)
	}
	return buf, nil
}

// writeFrame writes one length-prefixed payload frame.
func writeFrame(w io.Writer, data []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint64(hdr[:], uint64(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// Client is the CLI side of the protocol.
type Client struct {
	conn net.Conn
}

// Dial connects to a c4hd server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("daemon: dial %s: %w", addr, err)
	}
	return &Client{conn: conn}, nil
}

// Close drops the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(t command.Type, body any, payload []byte) (*command.Packet, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req := command.Packet{Type: t, Data: data}
	if err := command.Write(c.conn, &req); err != nil {
		return nil, err
	}
	if payload != nil {
		if err := writeFrame(c.conn, payload); err != nil {
			return nil, err
		}
	}
	resp, err := command.Read(c.conn)
	if err != nil {
		return nil, err
	}
	if resp.Type == command.TypeError {
		return nil, fmt.Errorf("%w: %s", ErrRemote, resp.Data)
	}
	return resp, nil
}

// StoreResult is a client-visible store outcome.
type StoreResult struct {
	Location string
	Total    time.Duration
}

// Store uploads an object (payload may be nil for a sparse object of the
// given size).
func (c *Client) Store(name, typ string, payload []byte, size int64, node string) (StoreResult, error) {
	req := storeReq{Name: name, Type: typ, Size: size, Node: node}
	if payload != nil {
		req.Size = int64(len(payload))
		req.HasPayload = true
	}
	resp, err := c.roundTrip(command.TypeStore, req, payload)
	if err != nil {
		return StoreResult{}, err
	}
	var body storeResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return StoreResult{}, err
	}
	return StoreResult{
		Location: body.Location,
		Total:    time.Duration(body.TotalMS) * time.Millisecond,
	}, nil
}

// FetchResult is a client-visible fetch outcome.
type FetchResult struct {
	Data   []byte
	Size   int64
	Source string
	Total  time.Duration
}

// Fetch downloads an object.
func (c *Client) Fetch(name, node string) (FetchResult, error) {
	resp, err := c.roundTrip(command.TypeFetch, fetchReq{Name: name, Node: node}, nil)
	if err != nil {
		return FetchResult{}, err
	}
	var body fetchResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return FetchResult{}, err
	}
	res := FetchResult{
		Size:   body.Size,
		Source: body.Source,
		Total:  time.Duration(body.TotalMS) * time.Millisecond,
	}
	if !body.Sparse {
		res.Data, err = readFrame(c.conn)
		if err != nil {
			return FetchResult{}, err
		}
	}
	return res, nil
}

// ProcessResult is a client-visible process outcome.
type ProcessResult struct {
	Target     string
	Mode       string
	OutputSize int64
	Detections int
	MatchID    int
	Total      time.Duration
}

// Process runs a fetch-and-process operation.
func (c *Client) Process(name, service string, id uint32, node string) (ProcessResult, error) {
	resp, err := c.roundTrip(command.TypeProcess, processReq{Name: name, Service: service, ID: id, Node: node}, nil)
	if err != nil {
		return ProcessResult{}, err
	}
	var body processResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return ProcessResult{}, err
	}
	return ProcessResult{
		Target:     body.Target,
		Mode:       body.Mode,
		OutputSize: body.OutputSize,
		Detections: body.Detections,
		MatchID:    body.MatchID,
		Total:      time.Duration(body.TotalMS) * time.Millisecond,
	}, nil
}

// NodeStats is one node's activity snapshot as reported by Stats.
type NodeStats struct {
	Addr         string
	Stores       int64
	Fetches      int64
	Processes    int64
	Deletes      int64
	BytesStored  int64
	BytesFetched int64
	CPULoad      float64
	MemFreeMB    int64
	// Compute-plane counters; zero on the paper's sequential path.
	ShardsExecuted int64
	OverlapSaved   time.Duration
	SpecLaunches   int64
	SpecWins       int64
	SpecCancels    int64
	// Fault-tolerance counters; zero while FaultConfig is the zero value.
	FetchRetries     int64
	ObjectsRepaired  int64
	ReplicasRestored int64
	// Federation counters; zero while FederationConfig is the zero value.
	CloudProbes       int64
	ShardsPlaced      int64
	ShardsRestored    int64
	ShardReconstructs int64
	// City-scale counters; KVHops is the node's total metadata-routing
	// hops, SuperPeerHops the aggregator-tier subset, ArenaBytes the
	// shared membership arena gauge (whole-mesh).
	KVHops        int64
	SuperPeerHops int64
	ArenaBytes    int64
}

// Stats returns per-node operation counters and machine state.
func (c *Client) Stats() ([]NodeStats, error) {
	resp, err := c.roundTrip(command.TypeResourceUpdate, struct{}{}, nil)
	if err != nil {
		return nil, err
	}
	var body statsResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return nil, err
	}
	out := make([]NodeStats, len(body.Nodes))
	for i, n := range body.Nodes {
		out[i] = NodeStats{
			Addr:              n.Addr,
			Stores:            n.Stores,
			Fetches:           n.Fetches,
			Processes:         n.Processes,
			Deletes:           n.Deletes,
			BytesStored:       n.BytesStored,
			BytesFetched:      n.BytesFetched,
			CPULoad:           n.CPULoad,
			MemFreeMB:         n.MemFreeMB,
			ShardsExecuted:    n.ShardsExecuted,
			OverlapSaved:      time.Duration(n.OverlapSavedMS) * time.Millisecond,
			SpecLaunches:      n.SpecLaunches,
			SpecWins:          n.SpecWins,
			SpecCancels:       n.SpecCancels,
			FetchRetries:      n.FetchRetries,
			ObjectsRepaired:   n.ObjectsRepaired,
			ReplicasRestored:  n.ReplicasRestored,
			CloudProbes:       n.CloudProbes,
			ShardsPlaced:      n.ShardsPlaced,
			ShardsRestored:    n.ShardsRestored,
			ShardReconstructs: n.ShardReconstructs,
			KVHops:            n.KVHops,
			SuperPeerHops:     n.SuperPeerHops,
			ArenaBytes:        n.ArenaBytes,
		}
	}
	return out, nil
}

// List enumerates nodes and stored objects.
func (c *Client) List() (nodes, objects []string, err error) {
	resp, err := c.roundTrip(command.TypeServiceRegister, struct{}{}, nil)
	if err != nil {
		return nil, nil, err
	}
	var body listResp
	if err := json.Unmarshal(resp.Data, &body); err != nil {
		return nil, nil, err
	}
	return body.Nodes, body.Objects, nil
}
