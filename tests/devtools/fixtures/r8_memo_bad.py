"""R8 fixture: a read memo written outside its two funnels."""

__all__ = ["Stream"]


class Stream:
    def __init__(self):
        self._read_memo = {}

    def _invalidate_reads(self):
        self._read_memo = {}

    def _remember(self, name, args, value):
        self._read_memo[name] = (args, value)
        return value

    def observe(self, point):
        self._read_memo.clear()

    def forecast(self, args, text):
        self._read_memo["forecast"] = (args, text)
        return text

    def forget_report(self):
        del self._read_memo["report"]
