REGISTERED = ["thing"]
