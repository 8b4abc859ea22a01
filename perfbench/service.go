package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"spes/internal/cluster"
	"spes/internal/schema"
	"spes/internal/server"
)

// shards is how many spes-serve shards the routed workload runs.
const shards = 2

// endpoint is one HTTP front (a shard or the router) on a loopback port.
type endpoint struct {
	url      string
	shutdown func(context.Context) error
	served   chan error
}

func serve(handlerServe func(net.Listener) error, shutdown func(context.Context) error) (*endpoint, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + l.Addr().String(), shutdown: shutdown, served: make(chan error, 1)}
	go func() { e.served <- handlerServe(l) }()
	return e, nil
}

// stop drains the front and waits until its serve loop has returned.
func (e *endpoint) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.shutdown(ctx)
	if serr := <-e.served; err == nil {
		err = serr
	}
	return err
}

// serviceSystem is the service path: cold server.New shards behind a
// cluster.Router, all on loopback, with clients POSTing /v1/verify. With
// direct set, clients skip the router and POST each pair to the shard it
// names (the router's placement from an earlier routed pass).
type serviceSystem struct {
	shards []*endpoint
	router *endpoint
	client *http.Client
	// direct, when non-nil, maps a pair ID to the shard index to send it
	// to, bypassing the router.
	direct map[string]int
	// observe, when non-nil, receives every decoded response with the
	// request's start and duration (traced runs).
	observe func(p pair, resp *server.VerifyResponse, start time.Time, took time.Duration)
}

func newService(cat *schema.Catalog) (*serviceSystem, error) {
	s := &serviceSystem{client: &http.Client{
		Timeout:   pairLimit + 5*time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
	var members []cluster.Shard
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("s%d", i+1)
		srv, err := server.New(server.Config{
			Catalog:       cat,
			ShardID:       id,
			VerifyTimeout: pairLimit,
			RefuteBudget:  refuteBudget,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		e, err := serve(srv.Serve, srv.Shutdown)
		if err != nil {
			srv.Shutdown(context.Background())
			s.close()
			return nil, err
		}
		s.shards = append(s.shards, e)
		members = append(members, cluster.Shard{ID: id, URL: e.url})
	}
	rt := cluster.NewRouter(cluster.Config{
		Catalog:        cat,
		Shards:         members,
		ProbeInterval:  -1,
		ReprobeBase:    -1,
		ForwardTimeout: pairLimit + 5*time.Second,
	})
	e, err := serve(rt.Serve, rt.Shutdown)
	if err != nil {
		rt.Shutdown(context.Background())
		s.close()
		return nil, err
	}
	s.router = e
	return s, nil
}

func (s *serviceSystem) verify(p pair) outcome {
	url := ""
	if s.direct != nil {
		url = s.shards[s.direct[p.ID]].url
	} else {
		url = s.router.url
	}
	start := time.Now()
	resp, err := s.post(url, p)
	took := time.Since(start)
	if err != nil {
		return classify(p, "", err.Error(), false, took)
	}
	if s.observe != nil {
		s.observe(p, resp, start, took)
	}
	o := classify(p, resp.Verdict, "", resp.TimedOut || resp.Cancelled || resp.Aborted, took)
	if resp.Panicked {
		o.failed = "internal_error"
	}
	o.witness = resp.Witness
	return o
}

// post sends one pair to /v1/verify. Any status but 200 is an error: a
// 400 is a query the service rejected, a 503 a shed that outlasted the
// router's retries.
func (s *serviceSystem) post(url string, p pair) (*server.VerifyResponse, error) {
	body, err := json.Marshal(server.VerifyRequest{ID: p.ID, SQL1: p.SQL1, SQL2: p.SQL2})
	if err != nil {
		return nil, err
	}
	r, err := s.client.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", r.StatusCode, bytes.TrimSpace(data))
	}
	var resp server.VerifyResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// clusterStats reads the router's aggregate of every shard's counters.
func (s *serviceSystem) clusterStats() (*cluster.ClusterStats, error) {
	r, err := s.client.Get(s.router.url + "/v1/cluster/stats")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	var cs cluster.ClusterStats
	if err := json.NewDecoder(r.Body).Decode(&cs); err != nil {
		return nil, err
	}
	return &cs, nil
}

// close stops the router first, then the shards, and waits for each.
func (s *serviceSystem) close() error {
	var first error
	if s.router != nil {
		first = s.router.stop()
	}
	for _, e := range s.shards {
		if err := e.stop(); err != nil && first == nil {
			first = err
		}
	}
	s.client.CloseIdleConnections()
	return first
}
