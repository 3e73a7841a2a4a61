package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
)

// Status fetches a job's progress snapshot from /v1/status, through the
// short-timeout client. Only tests ask for it; gxrun streams instead.
func (c *Client) Status(id string) (Status, error) {
	resp, err := c.short.Get(c.base + "/v1/status?id=" + url.QueryEscape(id))
	if err != nil {
		return Status{}, fmt.Errorf("serve: status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, statusError("status", resp)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, fmt.Errorf("serve: status: %w", err)
	}
	return st, nil
}
