package experiments

import (
	"fmt"

	"unikraft/internal/uknetdev"
)

func init() {
	register("zerocopy", "Zero-copy data path + kick coalescing sweep (nginx/Redis)", zerocopySweep)
}

// zerocopySweep measures the specialization levers this repo's data
// path exposes: zero-copy socket buffer handoff and TX kick batching,
// swept against the calibrated copying baseline for the two headline
// servers (nginx of Fig 13, Redis GET of Fig 12). The copying,
// unbatched row is exactly the configuration fig12/fig13 measure, so
// the speedup column reads as "what the paper's zero-copy + batching
// design buys over a straightforward copying stack" (§3.1; UKL and
// Mirage identify the same copy boundary as the dominant lever).
func zerocopySweep(env *Env) (*Result, error) {
	const (
		nginxReqs = 3000
		redisReqs = 5000
	)
	configs := []struct {
		name string
		wc   worldConfig
	}{
		{"copy", worldConfig{}},
		{"copy+kick8", worldConfig{tuning: uknetdev.Tuning{TxKickBatch: 8}}},
		{"zerocopy", worldConfig{zeroCopy: true}},
		{"zerocopy+kick8", worldConfig{zeroCopy: true, tuning: uknetdev.Tuning{TxKickBatch: 8}}},
		{"zerocopy+kick32", worldConfig{zeroCopy: true, tuning: uknetdev.Tuning{TxKickBatch: 32}}},
	}

	res := &Result{
		ID: "zerocopy", Title: Title("zerocopy"),
		Headers: []string{"datapath", "nginx-req/s", "nginx-speedup", "redis-GET-req/s", "redis-speedup"},
	}
	var baseNginx, baseRedis float64
	for i, c := range configs {
		nginx, err := nginxRate(env, c.wc, 1, paperConns, "tlsf", nginxReqs)
		if err != nil {
			return nil, fmt.Errorf("%s nginx: %w", c.name, err)
		}
		redis, err := redisRate(env, c.wc, 1, paperConns, "mimalloc", false, redisReqs)
		if err != nil {
			return nil, fmt.Errorf("%s redis: %w", c.name, err)
		}
		if i == 0 {
			baseNginx, baseRedis = nginx, redis
		}
		res.Rows = append(res.Rows, []string{
			c.name,
			krps(nginx), fmt.Sprintf("%.2fx", nginx/baseNginx),
			mrps(redis), fmt.Sprintf("%.2fx", redis/baseRedis),
		})
	}
	last := res.Rows[len(res.Rows)-1]
	res.Notes = append(res.Notes,
		fmt.Sprintf("zero-copy + batched kicks: nginx %s, redis GET %s vs the copying path (target >= 1.30x nginx)",
			last[2], last[4]),
		"copy row = the calibrated fig12/fig13 configuration; kicks dominate the per-request budget on vhost-net, so batching is the bigger lever at small payloads")
	return res, nil
}
