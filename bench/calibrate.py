"""Fixed pure-Python work whose run time measures the host's current speed.

    python3 bench/calibrate.py

On a shared host the speed of one core drifts by tens of percent over
minutes.  run.py spawns this child after each operation (several after a
long one) and divides the operation's time by the mean time of the
calibration children just before and after it, so a drift that slows both
cancels.

The work mimics what syzcover spends its time on (small-integer modular
arithmetic, tuples, dict updates) and imports nothing from the repository,
so no change to the program can move it.
"""

P = 1000003
ROUNDS = 120000


def work() -> int:
    table = {}
    x = 1
    for i in range(ROUNDS):
        x = (x * 48271 + i) % P
        key = (x & 255, i & 7)
        table[key] = (table.get(key, 0) + x) % P
    return sum(table.values()) % P


if __name__ == "__main__":
    work()
