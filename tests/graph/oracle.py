"""A plain dict-of-lists follower graph: the reference the CSR is checked against.

Neighbour lists are kept in the order edges arrive (base edges in
emission order, then follows added later), which is the order
:class:`~repro.graph.InformationNetwork` promises to its RNG-driven
consumers.  BFS is the textbook ``deque`` walk.
"""

from collections import deque


class DictGraph:
    """Users ``0..n_users-1``; ``add_follow(a, b)`` adds the edge a -> b (b follows a)."""

    def __init__(self, n_users: int, edges=()):
        self.n_users = n_users
        self.succ = {u: [] for u in range(n_users)}
        self.pred = {u: [] for u in range(n_users)}
        for followee, follower in edges:
            self.add_follow(int(followee), int(follower))

    def add_follow(self, followee: int, follower: int) -> bool:
        if follower in self.succ[followee]:
            return False
        self.succ[followee].append(follower)
        self.pred[follower].append(followee)
        return True

    @property
    def n_follows(self) -> int:
        return sum(len(v) for v in self.succ.values())

    def followers(self, u) -> tuple:
        return tuple(self.succ.get(u, ()))

    def followees(self, u) -> tuple:
        return tuple(self.pred.get(u, ()))

    def follower_count(self, u) -> int:
        return len(self.succ.get(u, ()))

    def follows(self, follower, followee) -> bool:
        return follower in self.succ.get(followee, ())

    def distances_from(self, source, cutoff: int) -> dict:
        if source not in self.succ:
            return {}
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if dist[node] >= cutoff:
                continue
            for nxt in self.succ[node]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        return dist

    def shortest_path_length(self, source, target, cutoff: int) -> int:
        return self.distances_from(source, cutoff).get(target, cutoff + 1)

    def susceptible_set(self, participants) -> set:
        participants = set(participants)
        exposed = set()
        for u in participants:
            exposed.update(self.succ.get(u, ()))
        return exposed - participants
